//! Four-state logic values (`0`, `1`, `x`, `z`).
//!
//! [`LogicVec`] is the shared value representation used by the parser for
//! number literals and by the simulator for signal values. Bit 0 is the
//! least-significant bit.

use std::fmt;

/// A single four-state logic bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub enum LogicBit {
    /// Logic low.
    #[default]
    Zero,
    /// Logic high.
    One,
    /// Unknown.
    X,
    /// High impedance.
    Z,
}

impl LogicBit {
    /// Returns `true` for [`LogicBit::X`] or [`LogicBit::Z`].
    pub fn is_unknown(self) -> bool {
        matches!(self, LogicBit::X | LogicBit::Z)
    }

    /// Converts a known bit to `bool`; `x`/`z` map to `None`.
    pub fn to_bool(self) -> Option<bool> {
        match self {
            LogicBit::Zero => Some(false),
            LogicBit::One => Some(true),
            _ => None,
        }
    }

    /// IEEE 1364 bitwise AND.
    pub fn and(self, other: LogicBit) -> LogicBit {
        use LogicBit::*;
        match (self, other) {
            (Zero, _) | (_, Zero) => Zero,
            (One, One) => One,
            _ => X,
        }
    }

    /// IEEE 1364 bitwise OR.
    pub fn or(self, other: LogicBit) -> LogicBit {
        use LogicBit::*;
        match (self, other) {
            (One, _) | (_, One) => One,
            (Zero, Zero) => Zero,
            _ => X,
        }
    }

    /// IEEE 1364 bitwise XOR.
    pub fn xor(self, other: LogicBit) -> LogicBit {
        use LogicBit::*;
        match (self, other) {
            (Zero, Zero) | (One, One) => Zero,
            (Zero, One) | (One, Zero) => One,
            _ => X,
        }
    }

    /// IEEE 1364 bitwise NOT.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> LogicBit {
        use LogicBit::*;
        match self {
            Zero => One,
            One => Zero,
            _ => X,
        }
    }
}

impl From<bool> for LogicBit {
    fn from(b: bool) -> Self {
        if b {
            LogicBit::One
        } else {
            LogicBit::Zero
        }
    }
}

impl fmt::Display for LogicBit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = match self {
            LogicBit::Zero => '0',
            LogicBit::One => '1',
            LogicBit::X => 'x',
            LogicBit::Z => 'z',
        };
        write!(f, "{c}")
    }
}

/// A fixed-width vector of four-state bits, LSB first.
///
/// ```
/// use dda_verilog::logic::LogicVec;
/// let v = LogicVec::from_u64(10, 4);
/// assert_eq!(v.to_string(), "1010");
/// assert_eq!(v.to_u64(), Some(10));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct LogicVec {
    bits: Vec<LogicBit>,
}

impl LogicVec {
    /// Creates a vector of `width` zero bits.
    pub fn zeros(width: usize) -> Self {
        LogicVec {
            bits: vec![LogicBit::Zero; width],
        }
    }

    /// Creates a vector of `width` `x` bits (the value of an uninitialised reg).
    pub fn xs(width: usize) -> Self {
        LogicVec {
            bits: vec![LogicBit::X; width],
        }
    }

    /// Creates a vector of `width` `z` bits.
    pub fn zs(width: usize) -> Self {
        LogicVec {
            bits: vec![LogicBit::Z; width],
        }
    }

    /// Creates a vector from bits, LSB first.
    pub fn from_bits(bits: Vec<LogicBit>) -> Self {
        LogicVec { bits }
    }

    /// Creates a `width`-bit vector holding `value` (truncating high bits).
    pub fn from_u64(value: u64, width: usize) -> Self {
        let bits = (0..width)
            .map(|i| {
                if i < 64 {
                    LogicBit::from(value >> i & 1 == 1)
                } else {
                    LogicBit::Zero
                }
            })
            .collect();
        LogicVec { bits }
    }

    /// Creates a 1-bit vector from a boolean.
    pub fn from_bool(b: bool) -> Self {
        LogicVec {
            bits: vec![LogicBit::from(b)],
        }
    }

    /// Creates a 1-bit vector from a logic bit.
    pub fn from_bit(b: LogicBit) -> Self {
        LogicVec { bits: vec![b] }
    }

    /// Parses a binary digit string (MSB first), accepting `0 1 x z _`.
    ///
    /// # Errors
    ///
    /// Returns `None` on any other character.
    pub fn parse_binary(s: &str) -> Option<Self> {
        let mut bits = Vec::new();
        for c in s.chars().rev() {
            match c {
                '0' => bits.push(LogicBit::Zero),
                '1' => bits.push(LogicBit::One),
                'x' | 'X' => bits.push(LogicBit::X),
                'z' | 'Z' | '?' => bits.push(LogicBit::Z),
                '_' => {}
                _ => return None,
            }
        }
        Some(LogicVec { bits })
    }

    /// Width in bits.
    pub fn width(&self) -> usize {
        self.bits.len()
    }

    /// Returns `true` when the vector has no bits.
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// Bit at `idx` (LSB = 0), or `x` when out of range.
    pub fn bit(&self, idx: usize) -> LogicBit {
        self.bits.get(idx).copied().unwrap_or(LogicBit::X)
    }

    /// Sets bit `idx`, ignoring out-of-range indices.
    pub fn set_bit(&mut self, idx: usize, b: LogicBit) {
        if let Some(slot) = self.bits.get_mut(idx) {
            *slot = b;
        }
    }

    /// The underlying bits, LSB first.
    pub fn bits(&self) -> &[LogicBit] {
        &self.bits
    }

    /// Returns `true` if any bit is `x` or `z`.
    pub fn has_unknown(&self) -> bool {
        self.bits.iter().any(|b| b.is_unknown())
    }

    /// Interprets the vector as an unsigned integer; `None` if any bit is
    /// unknown or the width exceeds 64.
    pub fn to_u64(&self) -> Option<u64> {
        if self.bits.len() > 64 {
            // Accept wider vectors whose high bits are all zero.
            if self.bits[64..].iter().any(|b| *b != LogicBit::Zero) {
                return None;
            }
        }
        let mut v = 0u64;
        for (i, b) in self.bits.iter().take(64).enumerate() {
            match b.to_bool() {
                Some(true) => v |= 1 << i,
                Some(false) => {}
                None => return None,
            }
        }
        Some(v)
    }

    /// Interprets the vector as a signed integer (two's complement).
    pub fn to_i64(&self) -> Option<i64> {
        let w = self.bits.len().min(64);
        if w == 0 {
            return Some(0);
        }
        let raw = self.to_u64()?;
        let sign = self.bits[self.bits.len() - 1] == LogicBit::One;
        if sign && self.bits.len() <= 64 {
            let mask = if w == 64 { u64::MAX } else { (1u64 << w) - 1 };
            Some((raw | !mask) as i64)
        } else {
            Some(raw as i64)
        }
    }

    /// Truth value for conditions: `Some(true)` if any bit is 1, `Some(false)`
    /// if all bits are 0, `None` if unknown bits prevent a decision.
    pub fn truthy(&self) -> Option<bool> {
        if self.bits.contains(&LogicBit::One) {
            return Some(true);
        }
        if self.bits.iter().all(|b| *b == LogicBit::Zero) {
            return Some(false);
        }
        None
    }

    /// Resizes to `width`, zero-extending (or sign-extending when `signed`).
    pub fn resize(&self, width: usize, signed: bool) -> LogicVec {
        let mut bits = self.bits.clone();
        let fill = if signed {
            bits.last().copied().unwrap_or(LogicBit::Zero)
        } else {
            LogicBit::Zero
        };
        bits.resize(width, fill);
        bits.truncate(width);
        LogicVec { bits }
    }

    /// Concatenates `other` below `self` (i.e. `{self, other}` in Verilog).
    pub fn concat(&self, other: &LogicVec) -> LogicVec {
        let mut bits = other.bits.clone();
        bits.extend_from_slice(&self.bits);
        LogicVec { bits }
    }

    /// Extracts bits `[lo, lo+width)`, filling out-of-range positions with `x`.
    pub fn slice(&self, lo: usize, width: usize) -> LogicVec {
        let bits = (0..width).map(|i| self.bit(lo + i)).collect();
        LogicVec { bits }
    }

    /// Case-equality (`===`): exact match including `x`/`z`.
    pub fn case_eq(&self, other: &LogicVec) -> bool {
        let w = self.width().max(other.width());
        (0..w).all(|i| {
            self.bits.get(i).copied().unwrap_or(LogicBit::Zero)
                == other.bits.get(i).copied().unwrap_or(LogicBit::Zero)
        })
    }
}

impl fmt::Display for LogicVec {
    /// Formats MSB first, as in Verilog binary literals.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.bits.is_empty() {
            return write!(f, "0");
        }
        for b in self.bits.iter().rev() {
            write!(f, "{b}")?;
        }
        Ok(())
    }
}

/// One plane of a [`PackedVec`]: 64 bits per word, inline for vectors that
/// fit a single word (the common case — no heap allocation at all).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Plane {
    Inline([u64; 1]),
    Heap(Vec<u64>),
}

impl Plane {
    fn new(nwords: usize) -> Plane {
        if nwords <= 1 {
            Plane::Inline([0])
        } else {
            Plane::Heap(vec![0; nwords])
        }
    }

    fn words(&self, nwords: usize) -> &[u64] {
        match self {
            Plane::Inline(w) => &w[..nwords.min(1)],
            Plane::Heap(v) => v,
        }
    }

    fn words_mut(&mut self, nwords: usize) -> &mut [u64] {
        match self {
            Plane::Inline(w) => &mut w[..nwords.min(1)],
            Plane::Heap(v) => v,
        }
    }
}

impl Default for Plane {
    fn default() -> Self {
        Plane::Inline([0])
    }
}

fn nwords_for(width: usize) -> usize {
    width.div_ceil(64)
}

/// Mask covering the valid bits of the top word of a `width`-bit vector.
fn top_mask(width: usize) -> u64 {
    let r = width % 64;
    if r == 0 {
        u64::MAX
    } else {
        (1u64 << r) - 1
    }
}

/// A word-packed four-state vector: two `u64` bitplanes per 64 bits.
///
/// Encoding per bit (IEEE 1364 aval/bval): `0 = (a=0,b=0)`, `1 = (a=1,b=0)`,
/// `z = (a=0,b=1)`, `x = (a=1,b=1)`. Bits past `width` in the top word are
/// kept canonically zero in both planes, so derived equality and hashing are
/// exact. All operations are bit-identical to the per-bit [`LogicVec`]
/// reference path in the simulator (`dda-sim`'s `ops` module), including its
/// X-propagation corner cases; the differential property tests in `dda-sim`
/// enforce this.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct PackedVec {
    width: usize,
    aval: Plane,
    bval: Plane,
}

impl PackedVec {
    /// Creates a vector of `width` zero bits.
    pub fn zeros(width: usize) -> Self {
        let n = nwords_for(width);
        PackedVec {
            width,
            aval: Plane::new(n),
            bval: Plane::new(n),
        }
    }

    /// Creates a vector of `width` `x` bits.
    pub fn xs(width: usize) -> Self {
        let mut v = Self::zeros(width);
        let n = v.nwords();
        for w in v.aval.words_mut(n) {
            *w = u64::MAX;
        }
        for w in v.bval.words_mut(n) {
            *w = u64::MAX;
        }
        v.mask_top();
        v
    }

    /// Creates a vector of `width` `z` bits.
    pub fn zs(width: usize) -> Self {
        let mut v = Self::zeros(width);
        let n = v.nwords();
        for w in v.bval.words_mut(n) {
            *w = u64::MAX;
        }
        v.mask_top();
        v
    }

    /// Creates a `width`-bit vector holding `value` (truncating high bits).
    pub fn from_u64(value: u64, width: usize) -> Self {
        let mut v = Self::zeros(width);
        if width > 0 {
            let n = v.nwords();
            v.aval.words_mut(n)[0] = value;
            v.mask_top();
        }
        v
    }

    /// Creates a `width.max(1)`-bit vector from a `u128`, truncating —
    /// mirrors the simulator's arithmetic result construction.
    pub fn from_u128(value: u128, width: usize) -> Self {
        let width = width.max(1);
        let mut v = Self::zeros(width);
        let n = v.nwords();
        {
            let a = v.aval.words_mut(n);
            a[0] = value as u64;
            if n > 1 {
                a[1] = (value >> 64) as u64;
            }
        }
        v.mask_top();
        v
    }

    /// Creates a 1-bit vector from a boolean.
    pub fn from_bool(b: bool) -> Self {
        Self::from_u64(b as u64, 1)
    }

    /// Creates a 1-bit vector from a logic bit.
    pub fn from_bit(b: LogicBit) -> Self {
        let mut v = Self::zeros(1);
        v.set_bit(0, b);
        v
    }

    /// Packs a per-bit [`LogicVec`].
    pub fn from_logic(lv: &LogicVec) -> Self {
        let mut v = Self::zeros(lv.width());
        let n = v.nwords();
        {
            let a = v.aval.words_mut(n);
            for (i, bit) in lv.bits().iter().enumerate() {
                let (ab, _) = encode(*bit);
                a[i / 64] |= (ab as u64) << (i % 64);
            }
        }
        {
            let b = v.bval.words_mut(n);
            for (i, bit) in lv.bits().iter().enumerate() {
                let (_, bb) = encode(*bit);
                b[i / 64] |= (bb as u64) << (i % 64);
            }
        }
        v
    }

    /// Unpacks to a per-bit [`LogicVec`].
    pub fn to_logic_vec(&self) -> LogicVec {
        (0..self.width).map(|i| self.bit(i)).collect()
    }

    fn nwords(&self) -> usize {
        nwords_for(self.width)
    }

    /// Clears the unused bits of the top word, restoring the canonical form.
    fn mask_top(&mut self) {
        let n = self.nwords();
        if n == 0 {
            return;
        }
        let m = top_mask(self.width);
        self.aval.words_mut(n)[n - 1] &= m;
        self.bval.words_mut(n)[n - 1] &= m;
    }

    /// The aval/bval planes as word slices.
    fn planes(&self) -> (&[u64], &[u64]) {
        let n = self.nwords();
        (self.aval.words(n), self.bval.words(n))
    }

    /// Width in bits.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Returns `true` when the vector has no bits.
    pub fn is_empty(&self) -> bool {
        self.width == 0
    }

    /// Bit at `idx` (LSB = 0), or `x` when out of range.
    pub fn bit(&self, idx: usize) -> LogicBit {
        if idx >= self.width {
            return LogicBit::X;
        }
        let (a, b) = self.planes();
        decode(
            a[idx / 64] >> (idx % 64) & 1 == 1,
            b[idx / 64] >> (idx % 64) & 1 == 1,
        )
    }

    /// Sets bit `idx`, ignoring out-of-range indices.
    pub fn set_bit(&mut self, idx: usize, bit: LogicBit) {
        if idx >= self.width {
            return;
        }
        let n = self.nwords();
        let (ab, bb) = encode(bit);
        let (w, s) = (idx / 64, idx % 64);
        let a = self.aval.words_mut(n);
        a[w] = a[w] & !(1 << s) | (ab as u64) << s;
        let b = self.bval.words_mut(n);
        b[w] = b[w] & !(1 << s) | (bb as u64) << s;
    }

    /// Writes `src` into bits `[lo, lo + width)`, mirroring the per-bit
    /// write path: out-of-range destination bits are dropped, and source
    /// reads past `src.width()` fill with `x`.
    pub fn set_range(&mut self, lo: usize, width: usize, src: &PackedVec) {
        for i in 0..width {
            self.set_bit(lo + i, src.bit(i));
        }
    }

    /// Returns `true` if any bit is `x` or `z`.
    pub fn has_unknown(&self) -> bool {
        self.planes().1.iter().any(|w| *w != 0)
    }

    /// Interprets the vector as an unsigned integer; `None` if any bit is
    /// unknown or a bit past 64 is nonzero.
    pub fn to_u64(&self) -> Option<u64> {
        let (a, b) = self.planes();
        for i in 1..a.len() {
            if a[i] | b[i] != 0 {
                return None;
            }
        }
        if a.is_empty() {
            return Some(0);
        }
        if b[0] != 0 {
            return None;
        }
        Some(a[0])
    }

    /// Interprets the vector as a `u128`; `None` when any bit is unknown or
    /// the width exceeds 128 with nonzero high bits.
    pub fn to_u128(&self) -> Option<u128> {
        let (a, b) = self.planes();
        for i in 2..a.len() {
            if a[i] | b[i] != 0 {
                return None;
            }
        }
        if b.iter().take(2).any(|w| *w != 0) {
            return None;
        }
        let mut v = a.first().copied().unwrap_or(0) as u128;
        if let Some(hi) = a.get(1) {
            v |= (*hi as u128) << 64;
        }
        Some(v)
    }

    /// As `u64`, allowing widths beyond 64 when the high bits are zero.
    pub fn to_u64_ext(&self) -> Option<u64> {
        u64::try_from(self.to_u128()?).ok()
    }

    /// Interprets the vector as a signed integer (two's complement),
    /// mirroring [`LogicVec::to_i64`] exactly.
    pub fn to_i64(&self) -> Option<i64> {
        if self.width == 0 {
            return Some(0);
        }
        let w = self.width.min(64);
        let raw = self.to_u64()?;
        let sign = self.bit(self.width - 1) == LogicBit::One;
        if sign && self.width <= 64 {
            let mask = if w == 64 { u64::MAX } else { (1u64 << w) - 1 };
            Some((raw | !mask) as i64)
        } else {
            Some(raw as i64)
        }
    }

    /// Truth value: `Some(true)` if any bit is 1, `Some(false)` if all bits
    /// are 0, `None` when unknown bits prevent a decision.
    pub fn truthy(&self) -> Option<bool> {
        let (a, b) = self.planes();
        if a.iter().zip(b).any(|(aw, bw)| aw & !bw != 0) {
            return Some(true);
        }
        if a.iter().zip(b).all(|(aw, bw)| aw | bw == 0) {
            return Some(false);
        }
        None
    }

    /// Resizes to `width`, zero-extending (or extending with the current MSB
    /// — which may be `x`/`z` — when `signed`).
    pub fn resize(&self, width: usize, signed: bool) -> PackedVec {
        let fill = if signed && self.width > 0 {
            self.bit(self.width - 1)
        } else {
            LogicBit::Zero
        };
        let mut out = Self::zeros(width);
        let n = out.nwords();
        let copy = self.width.min(width);
        let copy_words = nwords_for(copy);
        let (sa, sb) = self.planes();
        {
            let a = out.aval.words_mut(n);
            a[..copy_words].copy_from_slice(&sa[..copy_words]);
        }
        {
            let b = out.bval.words_mut(n);
            b[..copy_words].copy_from_slice(&sb[..copy_words]);
        }
        if copy < width {
            // Clear any copied bits past `copy`, then paint the fill bit.
            let m = top_mask(copy);
            if copy_words > 0 {
                out.aval.words_mut(n)[copy_words - 1] &= m;
                out.bval.words_mut(n)[copy_words - 1] &= m;
            }
            if fill != LogicBit::Zero {
                let (fa, fb) = encode(fill);
                fill_bits(out.aval.words_mut(n), copy, width, fa);
                fill_bits(out.bval.words_mut(n), copy, width, fb);
            }
        }
        out.mask_top();
        out
    }

    /// 64 bits of each plane starting at bit `lo`, with positions past
    /// `width` reading as `x` (both planes set).
    fn word_at(&self, lo: usize) -> (u64, u64) {
        let (pa, pb) = self.planes();
        let (w0, sh) = (lo / 64, lo % 64);
        let get = |p: &[u64], i: usize| p.get(i).copied().unwrap_or(0);
        let mut a = get(pa, w0) >> sh;
        let mut b = get(pb, w0) >> sh;
        if sh > 0 {
            a |= get(pa, w0 + 1) << (64 - sh);
            b |= get(pb, w0 + 1) << (64 - sh);
        }
        if lo + 64 > self.width {
            let xmask = if self.width > lo {
                !0u64 << (self.width - lo)
            } else {
                !0u64
            };
            a |= xmask;
            b |= xmask;
        }
        (a, b)
    }

    /// Extracts bits `[lo, lo + width)`, filling out-of-range positions
    /// with `x`.
    pub fn slice(&self, lo: usize, width: usize) -> PackedVec {
        let mut out = Self::zeros(width);
        let n = out.nwords();
        for i in 0..n {
            let (a, b) = self.word_at(lo + i * 64);
            out.aval.words_mut(n)[i] = a;
            out.bval.words_mut(n)[i] = b;
        }
        out.mask_top();
        out
    }

    /// Concatenates `other` below `self` (i.e. `{self, other}` in Verilog).
    pub fn concat(&self, other: &PackedVec) -> PackedVec {
        let width = self.width + other.width;
        let mut out = Self::zeros(width);
        let n = out.nwords();
        let (oa, ob) = other.planes();
        {
            let a = out.aval.words_mut(n);
            a[..oa.len()].copy_from_slice(oa);
            blit(a, self.planes().0, other.width);
        }
        {
            let b = out.bval.words_mut(n);
            b[..ob.len()].copy_from_slice(ob);
            blit(b, self.planes().1, other.width);
        }
        out.mask_top();
        out
    }

    /// Replicates the vector `n` times (`{n{a}}`).
    pub fn replicate(&self, n: usize) -> PackedVec {
        let width = self.width * n;
        let mut out = Self::zeros(width);
        let nw = out.nwords();
        let (sa, sb) = self.planes();
        for i in 0..n {
            blit(out.aval.words_mut(nw), sa, i * self.width);
            blit(out.bval.words_mut(nw), sb, i * self.width);
        }
        out.mask_top();
        out
    }

    /// Case-equality (`===`): exact 4-state match with zero extension.
    pub fn case_eq(&self, other: &PackedVec) -> bool {
        let (sa, sb) = self.planes();
        let (oa, ob) = other.planes();
        let n = sa.len().max(oa.len());
        let get = |p: &[u64], i: usize| p.get(i).copied().unwrap_or(0);
        (0..n).all(|i| get(sa, i) == get(oa, i) && get(sb, i) == get(ob, i))
    }
}

/// Encodes a logic bit as (aval, bval).
fn encode(b: LogicBit) -> (bool, bool) {
    match b {
        LogicBit::Zero => (false, false),
        LogicBit::One => (true, false),
        LogicBit::Z => (false, true),
        LogicBit::X => (true, true),
    }
}

/// Decodes an (aval, bval) pair.
fn decode(a: bool, b: bool) -> LogicBit {
    match (a, b) {
        (false, false) => LogicBit::Zero,
        (true, false) => LogicBit::One,
        (false, true) => LogicBit::Z,
        (true, true) => LogicBit::X,
    }
}

/// Sets plane bits `[lo, hi)` to `value`.
fn fill_bits(words: &mut [u64], lo: usize, hi: usize, value: bool) {
    if !value || lo >= hi {
        return;
    }
    for (i, w) in words.iter_mut().enumerate() {
        let (wlo, whi) = (i * 64, i * 64 + 64);
        if whi <= lo || wlo >= hi {
            continue;
        }
        let from = lo.max(wlo) - wlo;
        let to = hi.min(whi) - wlo;
        let mask = if to == 64 { !0u64 } else { (1u64 << to) - 1 } & !((1u64 << from) - 1);
        *w |= mask;
    }
}

/// ORs canonical `src` words into `dst` starting at bit offset `ofs`.
fn blit(dst: &mut [u64], src: &[u64], ofs: usize) {
    let (ws, bs) = (ofs / 64, ofs % 64);
    for (i, &w) in src.iter().enumerate() {
        if w == 0 {
            continue;
        }
        if ws + i < dst.len() {
            dst[ws + i] |= w << bs;
        }
        if bs != 0 && ws + i + 1 < dst.len() {
            dst[ws + i + 1] |= w >> (64 - bs);
        }
    }
}

impl fmt::Display for PackedVec {
    /// Formats MSB first, like [`LogicVec`].
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.width == 0 {
            return write!(f, "0");
        }
        for i in (0..self.width).rev() {
            write!(f, "{}", self.bit(i))?;
        }
        Ok(())
    }
}

/// Four-state operations, wordwise over the two bitplanes.
///
/// Per-word masks: `one = a & !b` (known 1), `zero = !a & !b` (known 0),
/// `unk = b` (x or z — both behave as unknown inside logic ops).
impl PackedVec {
    fn all_x(width: usize) -> PackedVec {
        PackedVec::xs(width.max(1))
    }

    fn binary_bitwise(
        a: &PackedVec,
        b: &PackedVec,
        f: impl Fn(u64, u64, u64, u64) -> (u64, u64),
    ) -> PackedVec {
        let width = a.width.max(b.width);
        let mut out = PackedVec::zeros(width);
        let n = out.nwords();
        let (xa, xb) = a.planes();
        let (ya, yb) = b.planes();
        let get = |p: &[u64], i: usize| p.get(i).copied().unwrap_or(0);
        for i in 0..n {
            let (ra, rb) = f(get(xa, i), get(xb, i), get(ya, i), get(yb, i));
            out.aval.words_mut(n)[i] = ra;
            out.bval.words_mut(n)[i] = rb;
        }
        out.mask_top();
        out
    }

    /// Bitwise AND.
    pub fn bit_and(&self, other: &PackedVec) -> PackedVec {
        Self::binary_bitwise(self, other, |xa, xb, ya, yb| {
            let r_one = (xa & !xb) & (ya & !yb);
            let r_zero = (!xa & !xb) | (!ya & !yb);
            let r_x = !(r_one | r_zero);
            (r_one | r_x, r_x)
        })
    }

    /// Bitwise OR.
    pub fn bit_or(&self, other: &PackedVec) -> PackedVec {
        Self::binary_bitwise(self, other, |xa, xb, ya, yb| {
            let r_one = (xa & !xb) | (ya & !yb);
            let r_zero = (!xa & !xb) & (!ya & !yb);
            let r_x = !(r_one | r_zero);
            (r_one | r_x, r_x)
        })
    }

    /// Bitwise XOR.
    pub fn bit_xor(&self, other: &PackedVec) -> PackedVec {
        Self::binary_bitwise(self, other, |xa, xb, ya, yb| {
            let known = !xb & !yb;
            let val = xa ^ ya;
            ((known & val) | !known, !known)
        })
    }

    /// Bitwise XNOR.
    pub fn bit_xnor(&self, other: &PackedVec) -> PackedVec {
        Self::binary_bitwise(self, other, |xa, xb, ya, yb| {
            let known = !xb & !yb;
            let val = !(xa ^ ya);
            ((known & val) | !known, !known)
        })
    }

    /// Bitwise NOT.
    pub fn bit_not(&self) -> PackedVec {
        let mut out = self.clone();
        let n = out.nwords();
        for i in 0..n {
            let (a, b) = (out.aval.words(n)[i], out.bval.words(n)[i]);
            out.aval.words_mut(n)[i] = !a | b;
        }
        out.mask_top();
        out
    }

    /// Wrapping addition; all-`x` on unknown operands.
    pub fn add(&self, other: &PackedVec) -> PackedVec {
        let w = self.width.max(other.width);
        match (self.to_u128(), other.to_u128()) {
            (Some(x), Some(y)) => Self::from_u128(x.wrapping_add(y), w),
            _ => Self::all_x(w),
        }
    }

    /// Wrapping subtraction; all-`x` on unknown operands.
    pub fn sub(&self, other: &PackedVec) -> PackedVec {
        let w = self.width.max(other.width);
        match (self.to_u128(), other.to_u128()) {
            (Some(x), Some(y)) => Self::from_u128(x.wrapping_sub(y), w),
            _ => Self::all_x(w),
        }
    }

    /// Wrapping multiplication; all-`x` on unknown operands.
    pub fn mul(&self, other: &PackedVec) -> PackedVec {
        let w = self.width.max(other.width);
        match (self.to_u128(), other.to_u128()) {
            (Some(x), Some(y)) => Self::from_u128(x.wrapping_mul(y), w),
            _ => Self::all_x(w),
        }
    }

    /// Unsigned division; all-`x` on unknown operands or division by zero.
    pub fn div(&self, other: &PackedVec) -> PackedVec {
        let w = self.width.max(other.width);
        match (self.to_u128(), other.to_u128()) {
            (Some(x), Some(y)) if y != 0 => Self::from_u128(x / y, w),
            _ => Self::all_x(w),
        }
    }

    /// Unsigned remainder; all-`x` on unknown operands or modulo by zero.
    pub fn rem(&self, other: &PackedVec) -> PackedVec {
        let w = self.width.max(other.width);
        match (self.to_u128(), other.to_u128()) {
            (Some(x), Some(y)) if y != 0 => Self::from_u128(x % y, w),
            _ => Self::all_x(w),
        }
    }

    /// Power; all-`x` on unknown operands. Result takes the base's width.
    pub fn pow(&self, other: &PackedVec) -> PackedVec {
        let w = self.width;
        match (self.to_u128(), other.to_u64_ext()) {
            (Some(x), Some(y)) => {
                let mut acc: u128 = 1;
                for _ in 0..y.min(200) {
                    acc = acc.wrapping_mul(x);
                }
                Self::from_u128(acc, w)
            }
            _ => Self::all_x(w),
        }
    }

    /// Two's-complement negation.
    pub fn neg(&self) -> PackedVec {
        let w = self.width;
        match self.to_u128() {
            Some(x) => Self::from_u128(x.wrapping_neg(), w),
            None => Self::all_x(w),
        }
    }

    /// Logical shift left; an unknown amount yields all-`x`.
    pub fn shl(&self, amount: &PackedVec) -> PackedVec {
        match amount.to_u64_ext() {
            Some(n) => self.shift_words(n as usize, true, LogicBit::Zero),
            None => Self::all_x(self.width),
        }
    }

    /// Logical shift right.
    pub fn shr(&self, amount: &PackedVec) -> PackedVec {
        match amount.to_u64_ext() {
            Some(n) => self.shift_words(n as usize, false, LogicBit::Zero),
            None => Self::all_x(self.width),
        }
    }

    /// Arithmetic shift right, filling with the (possibly `x`/`z`) MSB.
    pub fn ashr(&self, amount: &PackedVec) -> PackedVec {
        let fill = if self.width > 0 {
            self.bit(self.width - 1)
        } else {
            LogicBit::Zero
        };
        match amount.to_u64_ext() {
            Some(n) => self.shift_words(n as usize, false, fill),
            None => Self::all_x(self.width),
        }
    }

    fn shift_words(&self, n: usize, left: bool, fill: LogicBit) -> PackedVec {
        let w = self.width;
        let mut out = PackedVec::zeros(w);
        let nw = out.nwords();
        let n = n.min(w);
        for i in 0..nw {
            // Output word `i` covers bits [i*64, i*64+64); shifting left by
            // `n` reads source bits starting at i*64 - n, right at i*64 + n.
            let (a, b) = if left {
                let base = i * 64;
                if base + 64 <= n {
                    (0, 0)
                } else if base >= n {
                    let (mut a, mut b) = self.word_at(base - n);
                    // word_at x-fills past self.width; shl fills zeros.
                    let valid = w - (base - n).min(w);
                    if valid < 64 {
                        let m = (1u64 << valid) - 1;
                        a &= m;
                        b &= m;
                    }
                    (a, b)
                } else {
                    let sh = n - base;
                    let (mut a, mut b) = self.word_at(0);
                    let valid = w.min(64 - sh);
                    let m = if valid >= 64 { !0 } else { (1u64 << valid) - 1 };
                    a &= m;
                    b &= m;
                    (a << sh, b << sh)
                }
            } else {
                let (mut a, mut b) = self.word_at(i * 64 + n);
                // Positions at or past w - n take the fill bit.
                let lim = w - n;
                let base = i * 64;
                let valid = lim.saturating_sub(base).min(64);
                let m = if valid >= 64 { !0 } else { (1u64 << valid) - 1 };
                let (fa, fb) = encode(fill);
                a = a & m | if fa { !m } else { 0 };
                b = b & m | if fb { !m } else { 0 };
                (a, b)
            };
            out.aval.words_mut(nw)[i] = a;
            out.bval.words_mut(nw)[i] = b;
        }
        out.mask_top();
        out
    }

    /// Logical equality (`==`): 1-bit result; a mismatch on a known bit
    /// decides `0` even when other bits are unknown.
    pub fn log_eq(&self, other: &PackedVec) -> PackedVec {
        let (xa, xb) = self.planes();
        let (ya, yb) = other.planes();
        let n = xa.len().max(ya.len());
        let get = |p: &[u64], i: usize| p.get(i).copied().unwrap_or(0);
        let mut any_unknown = false;
        for i in 0..n {
            let (a1, b1, a2, b2) = (get(xa, i), get(xb, i), get(ya, i), get(yb, i));
            if !b1 & !b2 & (a1 ^ a2) != 0 {
                return PackedVec::from_bool(false);
            }
            any_unknown |= b1 | b2 != 0;
        }
        if any_unknown {
            PackedVec::from_bit(LogicBit::X)
        } else {
            PackedVec::from_bool(true)
        }
    }

    /// Logical inequality (`!=`).
    pub fn log_ne(&self, other: &PackedVec) -> PackedVec {
        match self.log_eq(other).bit(0) {
            LogicBit::X | LogicBit::Z => PackedVec::from_bit(LogicBit::X),
            b => PackedVec::from_bit(b.not()),
        }
    }

    /// Unsigned/signed `<` comparison; `x` when unknowns are present.
    pub fn cmp_lt(&self, other: &PackedVec, signed: bool) -> PackedVec {
        if self.has_unknown() || other.has_unknown() {
            return PackedVec::from_bit(LogicBit::X);
        }
        let r = if signed {
            let w = self.width.max(other.width);
            let x = self.resize(w, true).to_i64().unwrap_or(0);
            let y = other.resize(w, true).to_i64().unwrap_or(0);
            x < y
        } else {
            let x = self.to_u128().unwrap_or(0);
            let y = other.to_u128().unwrap_or(0);
            x < y
        };
        PackedVec::from_bool(r)
    }

    /// Logical AND (`&&`): 1-bit, `x` when undecidable.
    pub fn log_and(&self, other: &PackedVec) -> PackedVec {
        match (self.truthy(), other.truthy()) {
            (Some(false), _) | (_, Some(false)) => PackedVec::from_bool(false),
            (Some(true), Some(true)) => PackedVec::from_bool(true),
            _ => PackedVec::from_bit(LogicBit::X),
        }
    }

    /// Logical OR (`||`).
    pub fn log_or(&self, other: &PackedVec) -> PackedVec {
        match (self.truthy(), other.truthy()) {
            (Some(true), _) | (_, Some(true)) => PackedVec::from_bool(true),
            (Some(false), Some(false)) => PackedVec::from_bool(false),
            _ => PackedVec::from_bit(LogicBit::X),
        }
    }

    /// Logical NOT (`!`).
    pub fn log_not(&self) -> PackedVec {
        match self.truthy() {
            Some(v) => PackedVec::from_bool(!v),
            None => PackedVec::from_bit(LogicBit::X),
        }
    }

    /// AND reduction (`&a`), optionally inverted (`~&a`).
    pub fn reduce_and(&self, invert: bool) -> PackedVec {
        let (a, b) = self.planes();
        let n = a.len();
        let any_clean_zero = (0..n).any(|i| {
            let valid = if i == n - 1 { top_mask(self.width) } else { !0 };
            !(a[i] | b[i]) & valid != 0
        });
        let bit = if self.width == 0 || any_clean_zero {
            LogicBit::Zero
        } else if b.iter().any(|w| *w != 0) {
            LogicBit::X
        } else {
            LogicBit::One
        };
        PackedVec::from_bit(if invert { bit.not() } else { bit })
    }

    /// OR reduction (`|a`), optionally inverted (`~|a`).
    pub fn reduce_or(&self, invert: bool) -> PackedVec {
        let (a, b) = self.planes();
        let bit = if a.iter().zip(b).any(|(aw, bw)| aw & !bw != 0) {
            LogicBit::One
        } else if b.iter().any(|w| *w != 0) {
            LogicBit::X
        } else {
            LogicBit::Zero
        };
        PackedVec::from_bit(if invert { bit.not() } else { bit })
    }

    /// XOR reduction (`^a`), optionally inverted (`~^a`).
    pub fn reduce_xor(&self, invert: bool) -> PackedVec {
        let (a, b) = self.planes();
        let bit = if b.iter().any(|w| *w != 0) {
            LogicBit::X
        } else if a.iter().map(|w| w.count_ones()).sum::<u32>() % 2 == 1 {
            LogicBit::One
        } else {
            LogicBit::Zero
        };
        PackedVec::from_bit(if invert { bit.not() } else { bit })
    }

    /// Case-label comparison over `max(width)` bits with zero-extension.
    ///
    /// `wild_z` treats `z` on either side as a wildcard (`casez`); `wild_x`
    /// treats any unknown (`x` or `z`) as one (`casex`). With both flags
    /// false this is exact four-state equality modulo zero-extension
    /// (`case`). Wordwise: a bit mismatches when its `(aval, bval)` pair
    /// differs and it is not wild.
    pub fn matches_with_wildcards(&self, label: &PackedVec, wild_z: bool, wild_x: bool) -> bool {
        let (sa, sb) = self.planes();
        let (la, lb) = label.planes();
        let n = sa.len().max(la.len());
        for i in 0..n {
            let (sa, sb) = (
                sa.get(i).copied().unwrap_or(0),
                sb.get(i).copied().unwrap_or(0),
            );
            let (la, lb) = (
                la.get(i).copied().unwrap_or(0),
                lb.get(i).copied().unwrap_or(0),
            );
            let mut wild = 0u64;
            if wild_z {
                wild |= (!sa & sb) | (!la & lb);
            }
            if wild_x {
                wild |= sb | lb;
            }
            if ((sa ^ la) | (sb ^ lb)) & !wild != 0 {
                return false;
            }
        }
        true
    }

    /// Merges the two branches of a `cond ? a : b` whose condition is
    /// unknown: bits agree where both branches hold the same known value
    /// and are `x` elsewhere. Narrower operands contribute their top bit
    /// for positions past their width, mirroring the simulator's per-bit
    /// reference merge exactly.
    pub fn ternary_merge(&self, other: &PackedVec) -> PackedVec {
        let w = self.width.max(other.width);
        let mut out = PackedVec::xs(w);
        for i in 0..w {
            let x = self.bit(i.min(self.width.saturating_sub(1)));
            let y = other.bit(i.min(other.width.saturating_sub(1)));
            if x == y && !x.is_unknown() {
                out.set_bit(i, x);
            }
        }
        out
    }
}

impl From<&LogicVec> for PackedVec {
    fn from(lv: &LogicVec) -> Self {
        PackedVec::from_logic(lv)
    }
}

impl From<&PackedVec> for LogicVec {
    fn from(pv: &PackedVec) -> Self {
        pv.to_logic_vec()
    }
}

impl From<bool> for LogicVec {
    fn from(b: bool) -> Self {
        LogicVec::from_bool(b)
    }
}

impl From<u64> for LogicVec {
    fn from(v: u64) -> Self {
        LogicVec::from_u64(v, 64)
    }
}

impl FromIterator<LogicBit> for LogicVec {
    fn from_iter<I: IntoIterator<Item = LogicBit>>(iter: I) -> Self {
        LogicVec {
            bits: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_tables_match_ieee1364() {
        use LogicBit::*;
        assert_eq!(Zero.and(X), Zero);
        assert_eq!(One.and(X), X);
        assert_eq!(One.or(X), One);
        assert_eq!(Zero.or(X), X);
        assert_eq!(One.xor(X), X);
        assert_eq!(X.not(), X);
        assert_eq!(Z.not(), X);
    }

    #[test]
    fn from_u64_round_trips() {
        for v in [0u64, 1, 2, 5, 255, 256, u32::MAX as u64] {
            let lv = LogicVec::from_u64(v, 64);
            assert_eq!(lv.to_u64(), Some(v));
        }
    }

    #[test]
    fn display_is_msb_first() {
        assert_eq!(LogicVec::from_u64(0b1010, 4).to_string(), "1010");
        assert_eq!(LogicVec::from_u64(1, 3).to_string(), "001");
    }

    #[test]
    fn parse_binary_handles_xz_and_underscores() {
        let v = LogicVec::parse_binary("1x_z0").unwrap();
        assert_eq!(v.width(), 4);
        assert_eq!(v.bit(0), LogicBit::Zero);
        assert_eq!(v.bit(1), LogicBit::Z);
        assert_eq!(v.bit(2), LogicBit::X);
        assert_eq!(v.bit(3), LogicBit::One);
        assert!(LogicVec::parse_binary("10a").is_none());
    }

    #[test]
    fn unknown_propagates_to_u64() {
        let v = LogicVec::parse_binary("1x").unwrap();
        assert_eq!(v.to_u64(), None);
        assert!(v.has_unknown());
    }

    #[test]
    fn truthy_semantics() {
        assert_eq!(LogicVec::parse_binary("00").unwrap().truthy(), Some(false));
        assert_eq!(LogicVec::parse_binary("x1").unwrap().truthy(), Some(true));
        assert_eq!(LogicVec::parse_binary("x0").unwrap().truthy(), None);
    }

    #[test]
    fn resize_sign_extends() {
        let v = LogicVec::from_u64(0b10, 2);
        assert_eq!(v.resize(4, false).to_string(), "0010");
        assert_eq!(v.resize(4, true).to_string(), "1110");
        assert_eq!(v.resize(1, false).to_string(), "0");
    }

    #[test]
    fn concat_orders_like_verilog() {
        // {2'b10, 2'b01} == 4'b1001
        let hi = LogicVec::from_u64(0b10, 2);
        let lo = LogicVec::from_u64(0b01, 2);
        assert_eq!(hi.concat(&lo).to_string(), "1001");
    }

    #[test]
    fn slice_extracts_lsb_first() {
        let v = LogicVec::from_u64(0b1100, 4);
        assert_eq!(v.slice(2, 2).to_string(), "11");
        assert_eq!(v.slice(3, 2).to_string(), "x1");
    }

    #[test]
    fn signed_conversion() {
        let v = LogicVec::from_u64(0b111, 3);
        assert_eq!(v.to_i64(), Some(-1));
        let v = LogicVec::from_u64(0b011, 3);
        assert_eq!(v.to_i64(), Some(3));
    }

    #[test]
    fn case_eq_distinguishes_x() {
        let a = LogicVec::parse_binary("1x").unwrap();
        let b = LogicVec::parse_binary("1x").unwrap();
        let c = LogicVec::parse_binary("10").unwrap();
        assert!(a.case_eq(&b));
        assert!(!a.case_eq(&c));
    }

    fn pv(s: &str) -> PackedVec {
        PackedVec::from_logic(&LogicVec::parse_binary(s).unwrap())
    }

    #[test]
    fn packed_round_trips_logic_vec() {
        for s in ["", "0", "1", "x", "z", "1x0z", "10110x1z001"] {
            let lv = LogicVec::parse_binary(s).unwrap();
            let pv = PackedVec::from_logic(&lv);
            assert_eq!(pv.width(), lv.width());
            assert_eq!(pv.to_logic_vec(), lv, "{s}");
            for i in 0..lv.width() + 2 {
                assert_eq!(pv.bit(i), lv.bit(i), "{s}[{i}]");
            }
        }
        // Spanning a word boundary.
        let wide: String = "10xz".chars().cycle().take(100).collect();
        let lv = LogicVec::parse_binary(&wide).unwrap();
        assert_eq!(PackedVec::from_logic(&lv).to_logic_vec(), lv);
    }

    #[test]
    fn packed_bitwise_matches_tables() {
        let a = pv("1x0z");
        let b = pv("1101");
        assert_eq!(a.bit_and(&b).to_string(), "1x0x");
        assert_eq!(a.bit_or(&b).to_string(), "1101");
        assert_eq!(a.bit_xor(&b).to_string(), "0x0x");
        assert_eq!(a.bit_not().to_string(), "0x1x");
        assert_eq!(a.bit_xnor(&b).to_string(), "1x1x");
    }

    #[test]
    fn packed_arithmetic_and_unknown_poisoning() {
        let a = PackedVec::from_u64(3, 2);
        let b = PackedVec::from_u64(1, 2);
        assert_eq!(a.add(&b).to_u64(), Some(0));
        assert_eq!(b.sub(&a).to_u64(), Some(2));
        assert!(pv("1x").add(&b).has_unknown());
        assert!(PackedVec::from_u64(5, 4)
            .div(&PackedVec::zeros(4))
            .has_unknown());
    }

    #[test]
    fn packed_shifts_and_reductions() {
        let a = PackedVec::from_u64(0b0110, 4);
        let one = PackedVec::from_u64(1, 2);
        assert_eq!(a.shl(&one).to_string(), "1100");
        assert_eq!(a.shr(&one).to_string(), "0011");
        assert_eq!(pv("1010").ashr(&one).to_string(), "1101");
        assert_eq!(pv("111").reduce_and(false).to_u64(), Some(1));
        assert_eq!(pv("101").reduce_and(false).to_u64(), Some(0));
        assert_eq!(pv("100").reduce_or(false).to_u64(), Some(1));
        assert_eq!(pv("101").reduce_xor(false).to_u64(), Some(0));
        assert_eq!(pv("101").reduce_xor(true).to_u64(), Some(1));
    }

    #[test]
    fn packed_comparisons() {
        let a = PackedVec::from_u64(3, 4);
        let b = PackedVec::from_u64(5, 4);
        assert_eq!(a.cmp_lt(&b, false).to_u64(), Some(1));
        assert_eq!(b.cmp_lt(&a, false).to_u64(), Some(0));
        let m1 = PackedVec::from_u64(0xF, 4);
        assert_eq!(m1.cmp_lt(&a, true).to_u64(), Some(1));
        assert_eq!(m1.cmp_lt(&a, false).to_u64(), Some(0));
        assert_eq!(pv("x1").log_eq(&pv("x0")).to_u64(), Some(0));
        assert!(pv("1x").log_eq(&pv("10")).has_unknown());
        assert_eq!(pv("10").log_ne(&pv("11")).to_u64(), Some(1));
        assert!(pv("1x").case_eq(&pv("1x")));
        assert!(!pv("1x").case_eq(&pv("10")));
    }

    #[test]
    fn packed_slice_concat_resize_cross_word() {
        let wide: String = "01".chars().cycle().take(150).collect();
        let lv = LogicVec::parse_binary(&wide).unwrap();
        let p = PackedVec::from_logic(&lv);
        for (lo, w) in [(0, 64), (60, 10), (63, 64), (100, 80), (149, 5)] {
            assert_eq!(
                p.slice(lo, w).to_logic_vec(),
                lv.slice(lo, w),
                "slice({lo},{w})"
            );
        }
        let hi = pv("10");
        let lo = pv("01");
        assert_eq!(hi.concat(&lo).to_string(), "1001");
        assert_eq!(p.concat(&p).width(), 300);
        assert_eq!(
            p.resize(200, true).to_logic_vec(),
            lv.resize(200, true),
            "sign-extend across words"
        );
        assert_eq!(pv("z1").resize(4, true).to_string(), "zzz1");
        assert_eq!(pv("10").replicate(3).to_string(), "101010");
    }

    #[test]
    fn packed_set_range_mirrors_per_bit_writes() {
        let mut p = PackedVec::zeros(8);
        p.set_range(2, 3, &pv("101"));
        assert_eq!(p.to_string(), "00010100");
        // Source narrower than the range x-fills, like LogicVec::bit().
        let mut p = PackedVec::zeros(4);
        p.set_range(0, 4, &pv("1"));
        assert_eq!(p.to_string(), "xxx1");
    }

    #[test]
    fn packed_wide_conversions() {
        let a = PackedVec::from_u128(u128::MAX, 100);
        assert_eq!(a.to_u128(), Some((1u128 << 100) - 1));
        assert!(a.to_u64_ext().is_none());
        assert_eq!(PackedVec::from_u64(0b111, 3).to_i64(), Some(-1));
        assert_eq!(PackedVec::from_u64(0b011, 3).to_i64(), Some(3));
        assert_eq!(pv("x0").truthy(), None);
        assert_eq!(pv("x1").truthy(), Some(true));
        assert_eq!(pv("00").truthy(), Some(false));
    }
}

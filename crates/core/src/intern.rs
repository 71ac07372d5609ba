//! String interning: process-wide token symbols.
//!
//! The retrieval index and the n-gram model of the simulated LM compare
//! and hash the same small vocabulary of tokens millions of times per
//! evaluation sweep. Interning maps each distinct token string to a
//! [`Sym`] — a dense `u32` — once, so every later comparison, hash, and
//! table key is integer-sized instead of a heap `String`.
//!
//! The [`Interner`] is thread-safe (a lookup takes a shared lock; only the
//! first sighting of a new string takes the exclusive lock), so parallel
//! tokenisation workers can feed one vocabulary. Symbol *values* depend
//! on first-sighting order and therefore on thread interleaving — callers
//! must never let `Sym` ordering or numeric value affect observable
//! output (the slm crate's equivalence suites check exactly that).
//!
//! [`intern`] and the tokenizers of [`crate::tokenize`] front the
//! [`global`] interner with a per-thread cache, so a token this thread has
//! seen before costs one table load (a single-byte token) or one unlocked
//! probe of a table keyed by the token's bytes packed into a `u128`, under
//! a multiply-rotate hash instead of SipHash. A cache miss falls through
//! to the global interner, so `Sym` values stay process-wide. The cache
//! holds only strings the global interner already has; a lookup of an
//! unseen string (`lookup_syms`) caches nothing.
//!
//! ```
//! use dda_core::intern::{intern, resolve};
//! let a = intern("counter");
//! let b = intern("counter");
//! assert_eq!(a, b);
//! assert_eq!(&*resolve(a), "counter");
//! ```

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::{Arc, OnceLock, RwLock};

/// An interned string symbol: a dense id into an [`Interner`].
///
/// `Copy`, 4 bytes, and hashes/compares as an integer. Two `Sym`s from the
/// same interner are equal iff their strings are equal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Sym(u32);

impl Sym {
    /// The raw id (dense, starting at 0 in sighting order).
    pub fn as_u32(self) -> u32 {
        self.0
    }
}

#[derive(Default)]
struct Inner {
    /// String → symbol. Keys are the same `Arc`s as in `strings`.
    map: HashMap<Arc<str>, Sym>,
    /// Symbol id → string.
    strings: Vec<Arc<str>>,
}

/// A thread-safe, append-only string interner.
#[derive(Default)]
pub struct Interner {
    inner: RwLock<Inner>,
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Interner {
        Interner::default()
    }

    /// Interns `s`, returning its symbol (allocating one on first sight).
    pub fn intern(&self, s: &str) -> Sym {
        if let Some(sym) = self.inner.read().unwrap().map.get(s) {
            return *sym;
        }
        let mut inner = self.inner.write().unwrap();
        // Double-check: another thread may have interned between locks.
        if let Some(sym) = inner.map.get(s) {
            return *sym;
        }
        let sym = Sym(u32::try_from(inner.strings.len()).expect("interner full"));
        let arc: Arc<str> = Arc::from(s);
        inner.strings.push(Arc::clone(&arc));
        inner.map.insert(arc, sym);
        sym
    }

    /// Looks `s` up without interning it.
    pub fn lookup(&self, s: &str) -> Option<Sym> {
        self.inner.read().unwrap().map.get(s).copied()
    }

    /// The string behind `sym`.
    ///
    /// # Panics
    ///
    /// Panics if `sym` did not come from this interner.
    pub fn resolve(&self, sym: Sym) -> Arc<str> {
        Arc::clone(&self.inner.read().unwrap().strings[sym.0 as usize])
    }

    /// Number of distinct strings interned so far.
    pub fn len(&self) -> usize {
        self.inner.read().unwrap().strings.len()
    }

    /// `true` when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The process-wide interner shared by the tokenizer and every model.
pub fn global() -> &'static Interner {
    static GLOBAL: OnceLock<Interner> = OnceLock::new();
    GLOBAL.get_or_init(Interner::new)
}

/// Interns `s` in the [`global`] interner.
pub fn intern(s: &str) -> Sym {
    intern_token(s.as_bytes())
}

/// Resolves a [`global`]-interner symbol back to its string.
pub fn resolve(sym: Sym) -> Arc<str> {
    global().resolve(sym)
}

/// [`intern`] of a UTF-8 token given as bytes (the tokenizer's entry).
#[inline]
pub(crate) fn intern_token(tok: &[u8]) -> Sym {
    cached(tok, |s| Some(global().intern(s))).expect("interning always yields a symbol")
}

/// Looks a UTF-8 token given as bytes up in the [`global`] interner
/// without interning it (the query tokenizer's entry).
#[inline]
pub(crate) fn lookup_token(tok: &[u8]) -> Option<Sym> {
    cached(tok, |s| global().lookup(s))
}

/// Resolves `tok` through this thread's cache; on a miss asks `global`
/// and caches what it answers. A token longer than [`WORD_KEY`] bytes
/// (rare: an identifier of 16 chars or more) always asks `global`.
#[inline]
fn cached(tok: &[u8], global: impl FnOnce(&str) -> Option<Sym>) -> Option<Sym> {
    let utf8 = || std::str::from_utf8(tok).expect("tokens are UTF-8");
    match tok.len() {
        // A one-byte UTF-8 token is ASCII.
        1 => BYTE_SYMS.with(|syms| {
            let slot = &syms[tok[0] as usize];
            if slot.get() != NONE {
                return Some(Sym(slot.get()));
            }
            let sym = global(utf8())?;
            slot.set(sym.0);
            Some(sym)
        }),
        2..=WORD_KEY => WORD_SYMS.with(|words| {
            let key = word_key(tok);
            if let Some(sym) = words.borrow().get(&key) {
                return Some(*sym);
            }
            let sym = global(utf8())?;
            words.borrow_mut().insert(key, sym);
            Some(sym)
        }),
        _ => global(utf8()),
    }
}

/// Longest token `WORD_SYMS` caches: its bytes and its length fit a `u128`.
const WORD_KEY: usize = 15;

/// A token of at most [`WORD_KEY`] bytes packed with its length into one
/// integer, so the cache hashes and compares it in a few instructions.
fn word_key(tok: &[u8]) -> u128 {
    let mut key = [0u8; 16];
    key[..tok.len()].copy_from_slice(tok);
    key[WORD_KEY] = tok.len() as u8;
    u128::from_le_bytes(key)
}

/// `BYTE_SYMS` entry of a byte not cached yet.
const NONE: u32 = u32::MAX;

thread_local! {
    /// This thread's symbol id of each single-byte token (punctuation,
    /// one-letter words), [`NONE`] until first resolved.
    static BYTE_SYMS: [Cell<u32>; 128] = const { [const { Cell::new(NONE) }; 128] };
    /// This thread's symbol of every 2- to 15-byte token it has resolved,
    /// keyed by [`word_key`].
    static WORD_SYMS: RefCell<HashMap<u128, Sym, BuildHasherDefault<TokenHasher>>> =
        const { RefCell::new(HashMap::with_hasher(BuildHasherDefault::new())) };
}

/// A multiply-rotate hash over 8-byte words: a few cycles for a
/// [`word_key`], where SipHash costs tens. It has no flooding resistance
/// and needs none: the cache's keys are strings the global interner
/// already holds (query text is only looked up), so outside input cannot
/// fill it with colliding keys.
#[derive(Default)]
struct TokenHasher(u64);

impl Hasher for TokenHasher {
    fn write(&mut self, bytes: &[u8]) {
        for word in bytes.chunks(8) {
            let mut le = [0u8; 8];
            le[..word.len()].copy_from_slice(word);
            self.0 = (self.0.rotate_left(5) ^ u64::from_le_bytes(le))
                .wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
        }
    }

    fn finish(&self) -> u64 {
        // The multiply leaves its best-mixed bits at the top; the table
        // indexes by the low ones.
        self.0.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let i = Interner::new();
        let a = i.intern("clk");
        let b = i.intern("clk");
        let c = i.intern("rst");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn resolve_round_trips() {
        let i = Interner::new();
        for s in ["module", "endmodule", "<=", "always", ""] {
            let sym = i.intern(s);
            assert_eq!(&*i.resolve(sym), s);
        }
    }

    #[test]
    fn lookup_does_not_intern() {
        let i = Interner::new();
        assert_eq!(i.lookup("ghost"), None);
        assert!(i.is_empty());
        let sym = i.intern("ghost");
        assert_eq!(i.lookup("ghost"), Some(sym));
    }

    #[test]
    fn cached_symbols_are_the_global_ones() {
        for s in [
            "a",
            ";",
            "clk",
            "fifteen_bytes_x",
            "sixteen_bytes_xy",
            "a_much_longer_identifier_name",
        ] {
            let sym = intern(s);
            assert_eq!(intern(s), sym, "{s}: a cache hit");
            assert_eq!(lookup_token(s.as_bytes()), Some(sym), "{s}");
            assert_eq!(global().lookup(s), Some(sym), "{s}");
            assert_eq!(&*resolve(sym), s);
        }
        assert_eq!(lookup_token(b"never_interned_Word"), None);
        assert_eq!(global().lookup("never_interned_Word"), None);
    }

    #[test]
    fn word_keys_keep_the_length() {
        assert_ne!(word_key(b"ab"), word_key(b"ab\0"));
        assert_ne!(word_key(b"ab"), word_key(b"ba"));
        assert_ne!(word_key(b"fifteen_bytes_x"), word_key(b"fifteen_bytes_"));
    }

    #[test]
    fn symbols_are_dense() {
        let i = Interner::new();
        let a = i.intern("a");
        let b = i.intern("b");
        assert_eq!(a.as_u32(), 0);
        assert_eq!(b.as_u32(), 1);
    }

    #[test]
    fn concurrent_interning_agrees() {
        let i = Interner::new();
        let words: Vec<String> = (0..64).map(|n| format!("w{}", n % 16)).collect();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|t| {
                    let i = &i;
                    let words = &words;
                    scope.spawn(move || {
                        words
                            .iter()
                            .cycle()
                            .skip(t * 7)
                            .take(200)
                            .map(|w| (w.clone(), i.intern(w)))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            let all: Vec<(String, Sym)> = handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect();
            // Same string ⇒ same symbol, across every thread.
            let mut seen: HashMap<String, Sym> = HashMap::new();
            for (w, sym) in all {
                assert_eq!(*seen.entry(w).or_insert(sym), sym);
            }
        });
        assert_eq!(i.len(), 16);
    }
}

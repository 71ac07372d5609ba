//! Property tests: the streaming interned tokenizer (byte scan on ASCII,
//! char path otherwise, symbols from a per-thread cache) is exactly the
//! string-based tokenizer, and its lookup-only twin agrees with it.

use dda_core::intern::{resolve, Sym};
use dda_core::tokenize::{lookup_syms, token_count, tokenize, tokenize_lower, tokenize_syms};
use proptest::prelude::*;

fn via_syms(text: &str) -> Vec<String> {
    tokenize_syms(text)
        .map(|s| resolve(s).to_string())
        .collect()
}

/// `tokenize_syms` equals `tokenize_lower`, and once the text is
/// interned `lookup_syms` finds every one of its symbols.
fn check(text: &str) {
    assert_eq!(via_syms(text), tokenize_lower(text), "input {text:?}");
    let interned: Vec<Option<Sym>> = tokenize_syms(text).map(Some).collect();
    let looked_up: Vec<Option<Sym>> = lookup_syms(text).collect();
    assert_eq!(looked_up, interned, "input {text:?}");
}

/// Word fragments, separators and chars whose lowercase is ASCII (`K`,
/// U+212A), two chars (`İ`) or a non-ASCII letter (`ſ`), to be glued
/// into mixed words.
fn mixed_parts() -> Vec<&'static str> {
    vec![
        "clk", "Data_7", "IN", "x", "0", "_", "\u{212A}", "İ", "ſ", " ", "\x0B", "\r\n", ";", "(",
        "=",
    ]
}

proptest! {
    /// Resolving `tokenize_syms` through the interner equals
    /// `tokenize_lower`, on arbitrary printable inputs (incl. non-ASCII).
    #[test]
    fn syms_match_lower_on_printable(src in "\\PC{0,200}") {
        prop_assert_eq!(via_syms(&src), tokenize_lower(&src));
    }

    /// Same equivalence on code-shaped inputs: identifiers, numbers,
    /// operators, brackets, quotes, and whitespace (incl. newlines/tabs).
    #[test]
    fn syms_match_lower_on_code(
        src in "[ \n\t\x0B\x0C\ra-zA-Z0-9_;()=+&|^~<>.,:@#'\"\\[\\]{}-]{0,160}",
    ) {
        check(&src);
    }

    /// Non-ASCII chars inside ASCII words send the text down the char
    /// path, which must split and lowercase them as `tokenize_lower` does.
    #[test]
    fn syms_match_lower_on_mixed(
        parts in prop::collection::vec(prop::sample::select(mixed_parts()), 0..16),
        src in "[a-zA-Z0-9_ \t\x0B\x0C\r;=\u{212A}İſ]{0,60}",
    ) {
        check(&parts.concat());
        check(&src);
    }

    /// A token is found by lookup exactly when it was interned.
    #[test]
    fn lookup_finds_only_interned(src in "[ a-zA-Z0-9_;]{0,60}") {
        let looked_up: Vec<Option<Sym>> = lookup_syms(&src).collect();
        prop_assert_eq!(looked_up.len(), tokenize_lower(&src).len());
        for (sym, tok) in looked_up.iter().zip(tokenize_lower(&src)) {
            if let Some(sym) = sym {
                prop_assert_eq!(&*resolve(*sym), tok.as_str());
            }
        }
        check(&src);
    }

    /// The allocation-free counter agrees with the materialising tokenizer.
    #[test]
    fn token_count_matches_tokenize(src in "\\PC{0,200}") {
        prop_assert_eq!(token_count(&src), tokenize(&src).len());
    }

    /// Lowercasing never changes the token *structure* on cased ASCII.
    #[test]
    fn lower_is_tokenwise_on_ascii(src in "[ A-Za-z0-9_;()=+-]{0,120}") {
        let plain = tokenize(&src);
        let lower = tokenize_lower(&src);
        prop_assert_eq!(plain.len(), lower.len());
        for (p, l) in plain.iter().zip(&lower) {
            prop_assert_eq!(&p.to_lowercase(), l);
        }
    }

    /// Tokenizing the same text twice yields the same symbols (interning
    /// is stable), and symbol equality mirrors token equality.
    #[test]
    fn interning_is_stable(src in "[a-f0-9 _;]{0,80}") {
        let a: Vec<_> = tokenize_syms(&src).collect();
        let b: Vec<_> = tokenize_syms(&src).collect();
        prop_assert_eq!(&a, &b);
        let strs = via_syms(&src);
        for i in 0..a.len() {
            for j in 0..a.len() {
                prop_assert_eq!(a[i] == a[j], strs[i] == strs[j]);
            }
        }
    }
}

/// Every single ASCII byte and every pair of ASCII bytes, control bytes
/// and `\x0B` included.
#[test]
fn every_ascii_byte_and_pair() {
    for a in 0u8..128 {
        check(&(a as char).to_string());
        for b in 0u8..128 {
            check(&[a as char, b as char].iter().collect::<String>());
        }
    }
}

/// Each thread resolves through its own cache, some warm and some cold,
/// yet the same text yields the same symbols on every thread.
#[test]
fn threads_agree_on_symbols() {
    let texts: Vec<String> = (0..400)
        .map(|i| {
            format!(
                "Module M{} (input Clk_{}, output [7:0] q{}); // \u{212A}elvin İx {}",
                i % 37,
                i % 11,
                i,
                i * 7919
            )
        })
        .collect();
    let per_thread: Vec<Vec<Vec<Sym>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let texts = &texts;
                scope.spawn(move || {
                    // Warm this thread's cache on a rotated slice first.
                    for text in texts.iter().cycle().skip(t * 97).take(t * 50) {
                        tokenize_syms(text).for_each(drop);
                    }
                    let order: Vec<usize> = if t % 2 == 0 {
                        (0..texts.len()).collect()
                    } else {
                        (0..texts.len()).rev().collect()
                    };
                    let mut out = vec![Vec::new(); texts.len()];
                    for i in order {
                        out[i] = tokenize_syms(&texts[i]).collect();
                        let looked_up: Vec<Option<Sym>> = lookup_syms(&texts[i]).collect();
                        assert_eq!(
                            looked_up,
                            out[i].iter().copied().map(Some).collect::<Vec<_>>()
                        );
                    }
                    out
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for other in &per_thread[1..] {
        assert_eq!(other, &per_thread[0]);
    }
    for (text, syms) in texts.iter().zip(&per_thread[0]) {
        let strings: Vec<String> = syms.iter().map(|s| resolve(*s).to_string()).collect();
        assert_eq!(strings, tokenize_lower(text));
    }
}

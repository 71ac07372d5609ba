//! The corruption channel: token-level noise applied to generated code.
//!
//! The simulatable LM's output quality is "retrieved example + noise"; the
//! noise rate is what training data volume, alignment, and model capacity
//! buy down. Edits reuse the same token-splice machinery as the repair
//! augmentation, so corrupted outputs look like real LLM slip-ups: dropped
//! punctuation, duplicated words, off-by-one widths, renamed signals.

use dda_verilog::lexer::lex;
use dda_verilog::token::TokenKind;
use rand::Rng;

/// Applies `edits` random token-level edits to `source`.
///
/// Falls back to character-level noise when the text does not lex (e.g.
/// Python scripts), so the channel works for both Verilog and
/// SiliconCompiler outputs.
pub fn corrupt<R: Rng + ?Sized>(source: &str, edits: usize, rng: &mut R) -> String {
    let mut current = source.to_owned();
    for _ in 0..edits {
        current = match corrupt_once(&current, rng) {
            Some(next) => next,
            None => char_corrupt(&current, rng),
        };
    }
    current
}

fn corrupt_once<R: Rng + ?Sized>(source: &str, rng: &mut R) -> Option<String> {
    let tokens = lex(source).ok()?;
    if tokens.len() < 3 {
        return None;
    }
    let idents: Vec<&str> = tokens
        .iter()
        .filter_map(|t| match t.kind {
            TokenKind::Ident(s) => Some(s),
            _ => None,
        })
        .collect();
    let i = rng.gen_range(0..tokens.len());
    let t = &tokens[i];
    let (start, end) = (t.span.start, t.span.end);
    let replacement: String = match rng.gen_range(0..6u8) {
        // Drop the token.
        0 => String::new(),
        // Duplicate it.
        1 => format!("{} {}", &source[start..end], &source[start..end]),
        // Replace an identifier with another from the same file.
        2 => match (&t.kind, idents.len()) {
            (TokenKind::Ident(_), n) if n > 1 => idents[rng.gen_range(0..n)].to_owned(),
            _ => return corrupt_once_fallback(source, rng, i),
        },
        // Perturb a number.
        3 => match &t.kind {
            TokenKind::Number(s) => match s.parse::<i64>() {
                Ok(v) => (v + if rng.gen_bool(0.5) { 1 } else { -1 })
                    .max(0)
                    .to_string(),
                Err(_) => return corrupt_once_fallback(source, rng, i),
            },
            _ => return corrupt_once_fallback(source, rng, i),
        },
        // Swap with the next token.
        4 => {
            if i + 1 >= tokens.len() {
                return corrupt_once_fallback(source, rng, i);
            }
            let n = &tokens[i + 1];
            let merged = format!(
                "{} {}",
                &source[n.span.start..n.span.end],
                &source[start..end]
            );
            let mut out = String::with_capacity(source.len());
            out.push_str(&source[..start]);
            out.push_str(&merged);
            out.push_str(&source[n.span.end..]);
            return Some(out);
        }
        // Truncate the tail (models running out of budget).
        _ => {
            if tokens.len() < 8 {
                return corrupt_once_fallback(source, rng, i);
            }
            let cut = tokens[tokens.len() - rng.gen_range(1..4)].span.start;
            return Some(source[..cut].to_owned());
        }
    };
    let mut out = String::with_capacity(source.len());
    out.push_str(&source[..start]);
    out.push_str(&replacement);
    out.push_str(&source[end..]);
    Some(out)
}

fn corrupt_once_fallback<R: Rng + ?Sized>(
    source: &str,
    _rng: &mut R,
    token_idx: usize,
) -> Option<String> {
    // Deterministic simple fallback: drop the chosen token.
    let tokens = lex(source).ok()?;
    let t = tokens.get(token_idx)?;
    let mut out = String::with_capacity(source.len());
    out.push_str(&source[..t.span.start]);
    out.push_str(&source[t.span.end..]);
    Some(out)
}

fn char_corrupt<R: Rng + ?Sized>(source: &str, rng: &mut R) -> String {
    if source.is_empty() {
        return source.to_owned();
    }
    let idx = rng.gen_range(0..source.len());
    let idx = source
        .char_indices()
        .map(|(i, _)| i)
        .take_while(|i| *i <= idx)
        .last()
        .unwrap_or(0);
    let mut out = source.to_owned();
    match rng.gen_range(0..3u8) {
        0 => {
            out.remove(idx);
        }
        1 => out.insert(idx, 'x'),
        _ => {
            let lines: Vec<&str> = source.lines().collect();
            if lines.len() > 2 {
                let drop = rng.gen_range(0..lines.len());
                return lines
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| *i != drop)
                    .map(|(_, l)| *l)
                    .collect::<Vec<_>>()
                    .join("\n");
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    const SRC: &str = "module m(input a, output y);\nassign y = ~a;\nendmodule\n";

    #[test]
    fn zero_edits_is_identity() {
        let mut rng = SmallRng::seed_from_u64(1);
        assert_eq!(corrupt(SRC, 0, &mut rng), SRC);
    }

    #[test]
    fn edits_change_the_text() {
        let mut rng = SmallRng::seed_from_u64(2);
        let out = corrupt(SRC, 3, &mut rng);
        assert_ne!(out, SRC);
    }

    #[test]
    fn heavy_corruption_usually_breaks_lint() {
        let mut rng = SmallRng::seed_from_u64(3);
        let mut broken = 0;
        for _ in 0..30 {
            let out = corrupt(SRC, 6, &mut rng);
            if !dda_lint::check_source("c.v", &out).is_clean() {
                broken += 1;
            }
        }
        assert!(broken > 15, "only {broken}/30 broken");
    }

    #[test]
    fn light_corruption_sometimes_survives() {
        let mut rng = SmallRng::seed_from_u64(4);
        let mut clean = 0;
        for _ in 0..50 {
            let out = corrupt(SRC, 1, &mut rng);
            if dda_lint::check_source("c.v", &out).is_clean() {
                clean += 1;
            }
        }
        // Some single edits (number perturbations, renames) stay legal.
        assert!(clean > 0);
    }

    #[test]
    fn works_on_python_text() {
        let mut rng = SmallRng::seed_from_u64(5);
        let script = "import siliconcompiler\nchip = siliconcompiler.Chip('gcd')\nchip.run()\n";
        let out = corrupt(script, 2, &mut rng);
        assert_ne!(out, script);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = corrupt(SRC, 4, &mut SmallRng::seed_from_u64(9));
        let b = corrupt(SRC, 4, &mut SmallRng::seed_from_u64(9));
        assert_eq!(a, b);
    }
}

//! Interface adaptation: fitting retrieved code to the requested interface.
//!
//! Benchmark prompts (like RTLLM's) specify the exact module name and port
//! list the testbench will instantiate. A model that "understands" the
//! prompt renames the retrieved design's module and ports to match; one
//! that does not leaves mismatched interfaces behind, which the testbench
//! then fails to connect. Adaptation fidelity is therefore where the
//! NL-alignment skill becomes observable.

use dda_verilog::ast::PortDir;
use dda_verilog::lexer::lex;
use dda_verilog::token::TokenKind;
use std::collections::HashMap;

/// An interface specification parsed from a prompt.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct InterfaceSpec {
    /// Required module name.
    pub module: Option<String>,
    /// Required ports in order: (direction, name).
    pub ports: Vec<(PortDir, String)>,
    /// Raw `Ports:` declaration text (for re-emission).
    pub ports_text: Option<String>,
}

impl InterfaceSpec {
    /// `true` when the prompt constrained nothing.
    pub fn is_empty(&self) -> bool {
        self.module.is_none() && self.ports.is_empty()
    }
}

/// Parses `Module name:` / `Ports:` lines out of a prompt.
///
/// ```
/// let spec = dda_slm::adapt::parse_interface(
///     "Build a counter.\nModule name: counter_12\nPorts: input clk, input rst, output reg [3:0] count\n",
/// );
/// assert_eq!(spec.module.as_deref(), Some("counter_12"));
/// assert_eq!(spec.ports.len(), 3);
/// ```
pub fn parse_interface(prompt: &str) -> InterfaceSpec {
    let mut spec = InterfaceSpec::default();
    for line in prompt.lines() {
        let l = line.trim();
        if let Some(rest) = l.strip_prefix("Module name:") {
            let name = rest.trim().trim_end_matches('.').to_owned();
            if !name.is_empty() {
                spec.module = Some(name);
            }
        } else if let Some(rest) = l.strip_prefix("Ports:") {
            let text = rest.trim().trim_end_matches('.').to_owned();
            // Reuse the Verilog parser by wrapping as a header.
            let wrapped = format!("module __spec({text}); endmodule");
            if let Ok(sf) = dda_verilog::parse(&wrapped) {
                for p in &sf.modules[0].ports {
                    if let Some(dir) = p.dir {
                        spec.ports.push((dir, p.name.name.clone()));
                    }
                }
                spec.ports_text = Some(text);
            }
        }
    }
    spec
}

/// Renames the module and maps ports of `source` to match `spec`.
///
/// Port mapping is positional within each direction group (first input to
/// first required input, ...). Surplus required ports are left unmapped —
/// the resulting interface mismatch is a genuine functional failure, which
/// is the behaviour a partially-capable model exhibits.
pub fn adapt_interface(source: &str, spec: &InterfaceSpec) -> String {
    if spec.is_empty() {
        return source.to_owned();
    }
    let Ok(sf) = dda_verilog::parse(source) else {
        return source.to_owned();
    };
    let Some(module) = sf.modules.first() else {
        return source.to_owned();
    };
    let mut rename: HashMap<String, String> = HashMap::new();
    if let Some(target) = &spec.module {
        if target != &module.name.name {
            rename.insert(module.name.name.clone(), target.clone());
        }
    }
    // Determine each source port's direction (header or body decls).
    let dir_of = |name: &str| -> Option<PortDir> {
        for p in &module.ports {
            if p.name.name == name {
                if let Some(d) = p.dir {
                    return Some(d);
                }
            }
        }
        for item in &module.items {
            if let dda_verilog::Item::Port(pd) = item {
                if pd.names.iter().any(|n| n.name == name) {
                    return Some(pd.dir);
                }
            }
        }
        None
    };
    for dir in [PortDir::Input, PortDir::Output, PortDir::Inout] {
        let have: Vec<String> = module
            .ports
            .iter()
            .filter(|p| dir_of(&p.name.name) == Some(dir))
            .map(|p| p.name.name.clone())
            .collect();
        let want: Vec<&String> = spec
            .ports
            .iter()
            .filter(|(d, _)| *d == dir)
            .map(|(_, n)| n)
            .collect();
        // Exact-name matches bind first (clk stays clk even when the port
        // orders differ); the leftovers pair up positionally.
        let mut have_left: Vec<&String> = have.iter().filter(|h| !want.contains(h)).collect();
        let want_left: Vec<&&String> = want.iter().filter(|w| !have.contains(**w)).collect();
        for (old, new) in have_left.drain(..).zip(want_left) {
            rename.insert(old.clone(), (**new).to_owned());
        }
    }
    if rename.is_empty() {
        return source.to_owned();
    }
    rename_idents(source, &rename)
}

/// Scores how well a candidate module's interface fits a spec: +3 for an
/// exact (direction, name, width) port match, +2 for direction+name, and
/// -1 per unmatched spec port or surplus candidate port. Used by skilled
/// models to pick among near-tied retrieval candidates — checking the
/// requested interface against the example is exactly what instruction
/// following buys.
pub fn interface_fit(source: &str, spec: &InterfaceSpec) -> i32 {
    use std::collections::HashMap as Map;
    let Ok(sf) = dda_verilog::parse(source) else {
        return i32::MIN / 2;
    };
    let Some(module) = sf.modules.first() else {
        return i32::MIN / 2;
    };
    // (dir, name) -> width for the candidate.
    let mut have: Vec<(PortDir, String, usize)> = Vec::new();
    let env = Map::new();
    let width_of = |r: &Option<dda_verilog::ast::Range>| {
        dda_verilog::consteval::range_width(r, &env).unwrap_or(1)
    };
    for p in &module.ports {
        let dir = p.dir.or_else(|| {
            module.items.iter().find_map(|i| match i {
                dda_verilog::Item::Port(pd) if pd.names.iter().any(|n| n.name == p.name.name) => {
                    Some(pd.dir)
                }
                _ => None,
            })
        });
        let range = if p.range.is_some() {
            p.range.clone()
        } else {
            module.items.iter().find_map(|i| match i {
                dda_verilog::Item::Port(pd) if pd.names.iter().any(|n| n.name == p.name.name) => {
                    pd.range.clone()
                }
                _ => None,
            })
        };
        if let Some(dir) = dir {
            have.push((dir, p.name.name.clone(), width_of(&range)));
        }
    }
    // Spec widths via the same wrap-and-parse trick.
    let mut want: Vec<(PortDir, String, usize)> = Vec::new();
    if let Some(text) = &spec.ports_text {
        let wrapped = format!("module __spec({text}); endmodule");
        if let Ok(sf) = dda_verilog::parse(&wrapped) {
            for p in &sf.modules[0].ports {
                if let Some(d) = p.dir {
                    want.push((d, p.name.name.clone(), width_of(&p.range)));
                }
            }
        }
    }
    if want.is_empty() {
        for (d, n) in &spec.ports {
            want.push((*d, n.clone(), 1));
        }
    }
    let mut fit = 0i32;
    let mut used = vec![false; have.len()];
    for (d, n, w) in &want {
        // Exact first.
        if let Some(i) = have
            .iter()
            .enumerate()
            .position(|(i, (hd, hn, hw))| !used[i] && hd == d && hn == n && hw == w)
        {
            used[i] = true;
            fit += 3;
            continue;
        }
        if let Some(i) = have
            .iter()
            .enumerate()
            .position(|(i, (hd, hn, _))| !used[i] && hd == d && hn == n)
        {
            used[i] = true;
            fit += 2;
            continue;
        }
        if let Some(i) = have
            .iter()
            .enumerate()
            .position(|(i, (hd, _, hw))| !used[i] && hd == d && hw == w)
        {
            used[i] = true;
            fit += 1;
            continue;
        }
        fit -= 1;
    }
    fit -= used.iter().filter(|u| !**u).count() as i32;
    fit
}

/// Renames identifier tokens per `map` in one simultaneous pass.
pub fn rename_idents(source: &str, map: &HashMap<String, String>) -> String {
    let Ok(tokens) = lex(source) else {
        return source.to_owned();
    };
    let mut out = String::with_capacity(source.len());
    let mut pos = 0usize;
    for t in &tokens {
        out.push_str(&source[pos..t.span.start]);
        match &t.kind {
            TokenKind::Ident(name) if map.contains_key(*name) => {
                out.push_str(&map[*name]);
            }
            _ => out.push_str(&source[t.span.start..t.span.end]),
        }
        pos = t.span.end;
    }
    out.push_str(&source[pos..]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const COUNTER: &str = "module counter_7(input clk, input reset, output reg [3:0] value);\n\
        always @(posedge clk)\n  if (reset) value <= 4'd0;\n  else value <= value + 4'd1;\nendmodule\n";

    #[test]
    fn parses_spec_lines() {
        let spec = parse_interface(
            "Make a 4-bit counter that wraps.\n\
             Module name: counter_12\n\
             Ports: input clk, input rst, output reg [3:0] count",
        );
        assert_eq!(spec.module.as_deref(), Some("counter_12"));
        assert_eq!(
            spec.ports,
            vec![
                (PortDir::Input, "clk".into()),
                (PortDir::Input, "rst".into()),
                (PortDir::Output, "count".into()),
            ]
        );
    }

    #[test]
    fn adapts_module_and_ports() {
        let spec = parse_interface(
            "Module name: counter_12\nPorts: input clk, input rst, output reg [3:0] count",
        );
        let out = adapt_interface(COUNTER, &spec);
        assert!(out.contains("module counter_12"), "{out}");
        assert!(out.contains("if (rst) count <= 4'd0;"), "{out}");
        assert!(!out.contains("reset"), "{out}");
        assert!(dda_verilog::parse(&out).is_ok());
    }

    #[test]
    fn empty_spec_is_identity() {
        let spec = parse_interface("just make something nice");
        assert!(spec.is_empty());
        assert_eq!(adapt_interface(COUNTER, &spec), COUNTER);
    }

    #[test]
    fn surplus_ports_left_unmapped() {
        let spec = parse_interface(
            "Module name: c\nPorts: input clk, input rst, input en, output reg [3:0] q",
        );
        let out = adapt_interface(COUNTER, &spec);
        // clk->clk, reset->rst mapped; `en` has no source counterpart.
        assert!(out.contains("module c"));
        assert!(out.contains("rst"));
        assert!(!out.contains("en,"), "no en port appears: {out}");
    }

    #[test]
    fn simultaneous_rename_avoids_capture() {
        // Swap two names: a->b, b->a must not collapse into one.
        let mut map = HashMap::new();
        map.insert("a".to_string(), "b".to_string());
        map.insert("b".to_string(), "a".to_string());
        let out = rename_idents("assign a = b;", &map);
        assert_eq!(out, "assign b = a;");
    }

    #[test]
    fn rename_skips_keywords_and_strings() {
        let mut map = HashMap::new();
        map.insert("assign".to_string(), "XXX".to_string());
        let out = rename_idents("assign y = 1; // assign", &map);
        assert!(out.starts_with("assign y"), "{out}");
    }
}

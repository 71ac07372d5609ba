//! Dual-engine equivalence: every program in this battery must produce an
//! identical [`SimResult`] (output text, final time, finished flag, error
//! count) under the AST interpreter and the bytecode engine, and identical
//! run errors when a budget trips. The battery leans on the constructs the
//! compiler lowers specially: wide vectors, part selects, concatenation
//! lvalues, memories, case wildcards, functions, `$random`, nonblocking
//! and intra-assignment delays, `wait`, and `$monitor`.

use dda_sim::{EvalMode, RunErrorKind, SimOptions, Simulator};

fn opts(mode: EvalMode) -> SimOptions {
    SimOptions {
        eval_mode: mode,
        ..SimOptions::default()
    }
}

/// Runs `src` under both engines and asserts the results are identical;
/// returns the (shared) output for optional content checks.
fn both(src: &str, top: &str) -> String {
    let run = |mode: EvalMode| {
        let sf = dda_verilog::parse(src).expect("parses");
        let mut sim = Simulator::new(&sf, top).expect("elaborates");
        sim.seed_random(7);
        sim.run(&opts(mode)).expect("runs")
    };
    let ast = run(EvalMode::Ast);
    let byte = run(EvalMode::Bytecode);
    assert_eq!(ast, byte, "engines diverged on:\n{src}");
    byte.output
}

#[test]
fn counters_and_edges() {
    let out = both(
        "module tb;\n\
         reg clk = 0; reg [7:0] n = 0;\n\
         always #5 clk = ~clk;\n\
         always @(posedge clk) n <= n + 1;\n\
         initial begin #52 $display(\"n=%0d t=%0t\", n, $time); $finish; end\n\
         endmodule",
        "tb",
    );
    assert_eq!(out.trim(), "n=5 t=52");
}

#[test]
fn wide_vectors_cross_word_boundaries() {
    let out = both(
        "module tb;\n\
         reg [127:0] a; reg [199:0] b; reg [63:0] c;\n\
         initial begin\n\
           a = {4{32'hDEAD_BEEF}};\n\
           b = {a, a[127:56]};\n\
           c = a[95:32] ^ b[63:0];\n\
           $display(\"%h %h %h\", a, b[199:136], c);\n\
           $display(\"%0d %0d\", a[64], b < {200{1'b1}});\n\
           $finish;\n\
         end\n\
         endmodule",
        "tb",
    );
    assert!(out.contains("deadbeef"), "{out}");
}

#[test]
fn x_and_z_propagation() {
    both(
        "module tb;\n\
         reg [3:0] a, b; reg [3:0] r;\n\
         wire [3:0] w = a & b;\n\
         initial begin\n\
           a = 4'b1xz0; b = 4'b1101;\n\
           #1 $display(\"%b %b\", w, a ? 4'hF : 4'h0);\n\
           r = a === 4'b1xz0 ? 4'd1 : 4'd2;\n\
           $display(\"%b %b %b\", r, a + b, !a);\n\
           $finish;\n\
         end\n\
         endmodule",
        "tb",
    );
}

#[test]
fn case_families_and_default_ordering() {
    // Default arm listed first must still lose to a later matching label
    // in both engines; casez/casex wildcards must agree.
    both(
        "module tb;\n\
         reg [3:0] s; integer i;\n\
         initial begin\n\
           for (i = 0; i < 4; i = i + 1) begin\n\
             s = i[3:0];\n\
             case (s)\n\
               default: $display(\"d %0d\", i);\n\
               4'd1: $display(\"one\");\n\
               4'd2, 4'd3: $display(\"pair\");\n\
             endcase\n\
             casez (s)\n\
               4'b00??: $display(\"z-low\");\n\
               default: $display(\"z-hi\");\n\
             endcase\n\
             casex (s)\n\
               4'b0x0x: $display(\"x-even\");\n\
               default: $display(\"x-other\");\n\
             endcase\n\
           end\n\
           $finish;\n\
         end\n\
         endmodule",
        "tb",
    );
}

#[test]
fn memories_and_dynamic_indexing() {
    both(
        "module tb;\n\
         reg [15:0] mem [0:7]; reg [2:0] i; reg [15:0] acc;\n\
         initial begin\n\
           for (i = 0; i < 7; i = i + 1) mem[i] = {13'd0, i} * 16'd3;\n\
           acc = 0;\n\
           for (i = 0; i < 7; i = i + 1) acc = acc + mem[i];\n\
           mem[acc[2:0]] = 16'hFFFF;\n\
           $display(\"acc=%0d m0=%0d hit=%h\", acc, mem[0], mem[acc[2:0]]);\n\
           $finish;\n\
         end\n\
         endmodule",
        "tb",
    );
}

#[test]
fn part_select_and_concat_lvalues() {
    both(
        "module tb;\n\
         reg [31:0] r; reg [7:0] hi, lo; reg c;\n\
         initial begin\n\
           r = 32'hA5C3_0F17;\n\
           {hi, lo} = r[23:8];\n\
           r[3:0] = hi[7:4];\n\
           r[31-:4] = lo[3:0];\n\
           {c, r[11:8]} = {1'b1, hi[3:0]} + {1'b0, lo[7:4]};\n\
           $display(\"%h %h %h %b\", r, hi, lo, c);\n\
           $finish;\n\
         end\n\
         endmodule",
        "tb",
    );
}

#[test]
fn functions_and_signed_arithmetic() {
    both(
        "module tb;\n\
         reg signed [7:0] a, b; reg signed [15:0] p;\n\
         function [15:0] square; input signed [7:0] v; begin\n\
           square = v * v;\n\
         end endfunction\n\
         initial begin\n\
           a = -8'sd7; b = 8'sd3;\n\
           p = square(a);\n\
           $display(\"%0d %0d %0d %0d\", p, a < b, a >>> 1, a / b);\n\
           $finish;\n\
         end\n\
         endmodule",
        "tb",
    );
}

#[test]
fn random_streams_are_identical() {
    // $random draws must come out of one shared stream: same seed, same
    // sequence, whichever engine evaluates the call.
    let out = both(
        "module tb;\n\
         integer i; reg [31:0] r;\n\
         initial begin\n\
           for (i = 0; i < 5; i = i + 1) begin\n\
             r = $random;\n\
             $display(\"%h\", r);\n\
           end\n\
           $finish;\n\
         end\n\
         endmodule",
        "tb",
    );
    assert_eq!(out.lines().count(), 5);
}

#[test]
fn nonblocking_and_intra_assignment_delays() {
    both(
        "module tb;\n\
         reg [7:0] a = 1, b = 2, c = 0;\n\
         initial begin\n\
           a <= #3 8'd10;\n\
           b <= a;\n\
           c = #2 a + b;\n\
           $display(\"t%0t %0d %0d %0d\", $time, a, b, c);\n\
           #10 $display(\"t%0t %0d %0d %0d\", $time, a, b, c);\n\
           $finish;\n\
         end\n\
         endmodule",
        "tb",
    );
}

#[test]
fn wait_and_event_controls() {
    both(
        "module tb;\n\
         reg flag = 0; reg [3:0] n = 0; reg clk = 0;\n\
         always #2 clk = ~clk;\n\
         always @(negedge clk) n <= n + 1;\n\
         initial #11 flag = 1;\n\
         initial begin\n\
           wait (flag) $display(\"woke t=%0t n=%0d\", $time, n);\n\
           @(posedge clk) $display(\"edge t=%0t\", $time);\n\
           $finish;\n\
         end\n\
         endmodule",
        "tb",
    );
}

#[test]
fn monitors_and_error_counting() {
    let run = |mode: EvalMode| {
        let src = "module tb;\n\
             reg [3:0] v = 0;\n\
             initial $monitor(\"v=%0d\", v);\n\
             initial begin\n\
               #1 v = 3; #1 v = 3; #1 v = 9;\n\
               $error(\"boom %0d\", v);\n\
               #1 $finish;\n\
             end\n\
             endmodule";
        let sf = dda_verilog::parse(src).expect("parses");
        let mut sim = Simulator::new(&sf, "tb").expect("elaborates");
        sim.run(&opts(mode)).expect("runs")
    };
    let ast = run(EvalMode::Ast);
    let byte = run(EvalMode::Bytecode);
    assert_eq!(ast, byte);
    assert_eq!(byte.error_count, 1);
    assert!(byte.output.contains("[ERROR] boom 9"), "{}", byte.output);
}

#[test]
fn repeat_while_forever_loops() {
    both(
        "module tb;\n\
         reg [7:0] n = 0; reg [7:0] m = 0; reg stop = 0;\n\
         initial forever begin #1 n = n + 1; if (n == 8) stop = 1; end\n\
         initial begin\n\
           repeat (3) m = m + 2;\n\
           while (m > 0) m = m - 1;\n\
           wait (stop) $display(\"n=%0d m=%0d\", n, m);\n\
           $finish;\n\
         end\n\
         endmodule",
        "tb",
    );
}

#[test]
fn continuous_assignment_network() {
    both(
        "module adder(input [15:0] x, y, output [16:0] s);\n\
         assign s = x + y;\n\
         endmodule\n\
         module tb;\n\
         reg [15:0] x = 0, y = 0; wire [16:0] s;\n\
         adder dut(.x(x), .y(y), .s(s));\n\
         wire [15:0] folded = s[15:0] ^ {16{s[16]}};\n\
         initial begin\n\
           x = 16'hFFFF; y = 16'h0001;\n\
           #1 $display(\"%h %h\", s, folded);\n\
           x = 16'h1234; y = 16'h4321;\n\
           #1 $display(\"%h %h\", s, folded);\n\
           $finish;\n\
         end\n\
         endmodule",
        "tb",
    );
}

/// Step budgets must trip identically: the compiled executor's task
/// structure is 1:1 with the interpreter's, so a runaway loop exhausts
/// `max_steps` at the same count in both engines.
#[test]
fn step_budget_trips_identically() {
    let src = "module tb;\n\
         reg r = 0;\n\
         always r = ~r;\n\
         endmodule";
    let run = |mode: EvalMode, max_steps: u64| {
        let sf = dda_verilog::parse(src).expect("parses");
        let mut sim = Simulator::new(&sf, "tb").expect("elaborates");
        sim.run(&SimOptions {
            max_steps,
            eval_mode: mode,
            ..SimOptions::default()
        })
    };
    for budget in [10, 1_000, 9_999] {
        let ast = run(EvalMode::Ast, budget).expect_err("runaway");
        let byte = run(EvalMode::Bytecode, budget).expect_err("runaway");
        assert_eq!(ast.kind, RunErrorKind::StepBudget);
        assert_eq!(ast, byte, "budget {budget}");
    }
}

/// A zero-delay loop through continuous assignments alone retires no
/// statements; it must still trip the step budget, at the same count in
/// both engines, instead of evaluating forever.
#[test]
fn continuous_assignment_loop_trips_the_step_budget() {
    let src = "module tb;\n\
         reg en;\n\
         wire [7:0] a;\n\
         assign a = en ? a + 8'd1 : 8'd0;\n\
         initial begin\n\
           en = 0;\n\
           #1 en = 1;\n\
           #1 $display(\"RESULT 1 1\");\n\
           $finish;\n\
         end\n\
         endmodule";
    let run = |mode: EvalMode, max_steps: u64| {
        let sf = dda_verilog::parse(src).expect("parses");
        let mut sim = Simulator::new(&sf, "tb").expect("elaborates");
        sim.run(&SimOptions {
            max_steps,
            eval_mode: mode,
            ..SimOptions::default()
        })
    };
    for budget in [10, 1_000, 9_999] {
        let ast = run(EvalMode::Ast, budget).expect_err("runaway");
        let byte = run(EvalMode::Bytecode, budget).expect_err("runaway");
        assert_eq!(ast.kind, RunErrorKind::StepBudget);
        assert_eq!(ast.time, 1, "the loop starts when `en` rises");
        assert_eq!(ast, byte, "budget {budget}");
    }
}

/// Same for the NBA delta limit (combinational feedback through
/// nonblocking assigns).
#[test]
fn delta_limit_trips_identically() {
    let src = "module tb;\n\
         reg a = 0;\n\
         always @(a) a <= ~a;\n\
         endmodule";
    let run = |mode: EvalMode| {
        let sf = dda_verilog::parse(src).expect("parses");
        let mut sim = Simulator::new(&sf, "tb").expect("elaborates");
        sim.run(&opts(mode))
    };
    let ast = run(EvalMode::Ast).expect_err("livelock");
    let byte = run(EvalMode::Bytecode).expect_err("livelock");
    assert_eq!(ast.kind, RunErrorKind::DeltaLimit);
    assert_eq!(ast, byte);
}

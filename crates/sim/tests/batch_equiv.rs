//! Multi-lane equivalence: every lane of a [`run_batch`] sweep must
//! produce a [`SimResult`] (or [`RunError`]) bit-identical to running the
//! same seed on a fresh scalar bytecode simulator with the same options.
//! The battery covers deterministic testbenches, `$random` values,
//! branches, case selects, delays and dynamic indices driven by per-lane
//! random draws, repeated seeds within one batch, per-lane budget and
//! timeout behaviour, and `$monitor`.

use dda_sim::{
    elaborate, run_batch, Design, EvalMode, RunError, RunErrorKind, SimOptions, SimResult,
    Simulator,
};

fn design(src: &str, top: &str) -> Design {
    let sf = dda_verilog::parse(src).expect("parses");
    elaborate(&sf, top).expect("elaborates")
}

/// One sequential run: fresh simulator, optional seed, bytecode mode.
fn scalar(design: &Design, seed: Option<u64>, opts: &SimOptions) -> Result<SimResult, RunError> {
    let mut sim = Simulator::from_design(design.clone());
    if let Some(s) = seed {
        sim.seed_random(s);
    }
    let mut o = opts.clone();
    o.eval_mode = EvalMode::Bytecode;
    sim.run(&o)
}

/// Asserts every lane of a batched run equals its sequential counterpart.
fn assert_equiv(src: &str, top: &str, seeds: &[Option<u64>], opts: &SimOptions) {
    let d = design(src, top);
    let got = run_batch(&d, seeds, opts);
    assert_eq!(got.len(), seeds.len());
    for (l, (seed, got)) in seeds.iter().zip(&got).enumerate() {
        let want = scalar(&d, *seed, opts);
        assert_eq!(&want, got, "lane {l} (seed {seed:?}) diverged on:\n{src}");
    }
}

/// Seeds exercised for every source: R = 1, 4, and 8 with a mix of seeded
/// and unseeded lanes.
fn seed_sets() -> Vec<Vec<Option<u64>>> {
    vec![
        vec![None],
        vec![Some(3)],
        vec![None, Some(1), Some(2), Some(1)],
        (0..8)
            .map(|i| if i % 3 == 0 { None } else { Some(i) })
            .collect(),
    ]
}

fn equiv_all(src: &str, top: &str) {
    for seeds in seed_sets() {
        assert_equiv(src, top, &seeds, &SimOptions::default());
    }
}

#[test]
fn deterministic_testbench_matches_every_lane() {
    let src = "module tb;\n\
         reg clk = 0; reg [7:0] n = 0;\n\
         always #5 clk = ~clk;\n\
         always @(posedge clk) n <= n + 1;\n\
         initial begin #52 $display(\"n=%0d t=%0t\", n, $time); $finish; end\n\
         endmodule";
    equiv_all(src, "tb");
}

#[test]
fn wide_vectors_and_concat_lvalues() {
    equiv_all(
        "module tb;\n\
         reg [127:0] a; reg [199:0] b; reg [31:0] r; reg [7:0] hi, lo; reg c;\n\
         initial begin\n\
           a = {4{32'hDEAD_BEEF}};\n\
           b = {a, a[127:56]};\n\
           r = a[95:64] ^ b[31:0];\n\
           {hi, lo} = r[23:8];\n\
           r[3:0] = hi[7:4];\n\
           {c, r[11:8]} = {1'b1, hi[3:0]} + {1'b0, lo[7:4]};\n\
           $display(\"%h %h %h %b\", a, b[199:136], r, c);\n\
           $finish;\n\
         end\n\
         endmodule",
        "tb",
    );
}

#[test]
fn x_z_propagation_and_continuous_assigns() {
    equiv_all(
        "module adder(input [15:0] x, y, output [16:0] s);\n\
         assign s = x + y;\n\
         endmodule\n\
         module tb;\n\
         reg [3:0] a, b; wire [3:0] w = a & b;\n\
         reg [15:0] p = 0, q = 0; wire [16:0] s;\n\
         adder dut(.x(p), .y(q), .s(s));\n\
         initial begin\n\
           a = 4'b1xz0; b = 4'b1101;\n\
           p = 16'hFFFF; q = 16'h0001;\n\
           #1 $display(\"%b %b %h\", w, a ? 4'hF : 4'h0, s);\n\
           $finish;\n\
         end\n\
         endmodule",
        "tb",
    );
}

#[test]
fn memories_dynamic_indexing_and_loops() {
    equiv_all(
        "module tb;\n\
         reg [15:0] mem [0:7]; reg [2:0] i; reg [15:0] acc;\n\
         initial begin\n\
           for (i = 0; i < 7; i = i + 1) mem[i] = {13'd0, i} * 16'd3;\n\
           acc = 0;\n\
           for (i = 0; i < 7; i = i + 1) acc = acc + mem[i];\n\
           mem[acc[2:0]] = 16'hFFFF;\n\
           repeat (3) acc = acc + 1;\n\
           while (acc[0]) acc = acc + 1;\n\
           $display(\"acc=%0d m0=%0d hit=%h\", acc, mem[0], mem[acc[2:0]]);\n\
           $finish;\n\
         end\n\
         endmodule",
        "tb",
    );
}

#[test]
fn random_values_per_lane() {
    // Lanes draw different values but never branch on them.
    let src = "module tb;\n\
         integer i; reg [31:0] r; reg [31:0] acc = 0;\n\
         initial begin\n\
           for (i = 0; i < 5; i = i + 1) begin\n\
             r = $random;\n\
             acc = acc ^ r;\n\
             $display(\"%h\", r);\n\
           end\n\
           $display(\"acc=%h\", acc);\n\
           $finish;\n\
         end\n\
         endmodule";
    equiv_all(src, "tb");
}

#[test]
fn branch_on_random_per_lane() {
    let src = "module tb;\n\
         reg [31:0] r;\n\
         initial begin\n\
           r = $random;\n\
           if (r[0]) $display(\"odd %h\", r);\n\
           else $display(\"even %h\", r);\n\
           $finish;\n\
         end\n\
         endmodule";
    equiv_all(src, "tb");
    assert_equiv(src, "tb", &[Some(42)], &SimOptions::default());
}

#[test]
fn case_select_on_random_per_lane() {
    equiv_all(
        "module tb;\n\
         reg [31:0] r; reg [7:0] out;\n\
         initial begin\n\
           r = $random;\n\
           case (r[1:0])\n\
             2'd0: out = 8'd10;\n\
             2'd1, 2'd2: out = 8'd20;\n\
             default: out = 8'd30;\n\
           endcase\n\
           $display(\"%0d %h\", out, r);\n\
           $finish;\n\
         end\n\
         endmodule",
        "tb",
    );
}

#[test]
fn random_delay_and_dynamic_write_per_lane() {
    equiv_all(
        "module tb;\n\
         reg [31:0] r; reg [7:0] mem [0:3];\n\
         initial begin\n\
           mem[0] = 0; mem[1] = 0; mem[2] = 0; mem[3] = 0;\n\
           r = $random;\n\
           #(r[1:0]) mem[r[3:2]] = 8'hAB;\n\
           $display(\"t=%0t %0d %0d %0d %0d\", $time, mem[0], mem[1], mem[2], mem[3]);\n\
           $finish;\n\
         end\n\
         endmodule",
        "tb",
    );
}

#[test]
fn error_warning_fatal_formatting_per_lane() {
    equiv_all(
        "module tb;\n\
         reg [31:0] r;\n\
         initial begin\n\
           r = $random;\n\
           $warning(\"w %h\", r);\n\
           $error(\"e %0d\", r[7:0]);\n\
           $display(\"after\");\n\
           $finish;\n\
         end\n\
         endmodule",
        "tb",
    );
}

#[test]
fn step_budget_trips_identically_per_lane() {
    let src = "module tb;\n\
         reg r = 0;\n\
         always r = ~r;\n\
         endmodule";
    for budget in [10, 1_000, 9_999] {
        let opts = SimOptions {
            max_steps: budget,
            ..SimOptions::default()
        };
        let d = design(src, "tb");
        let got = run_batch(&d, &[None, Some(1), Some(2), Some(3)], &opts);
        for (l, got) in got.iter().enumerate() {
            let err = got.as_ref().expect_err("runaway loop must trip");
            assert_eq!(err.kind, RunErrorKind::StepBudget, "lane {l}");
            let want = scalar(&d, [None, Some(1), Some(2), Some(3)][l], &opts).expect_err("scalar");
            assert_eq!(&want, err, "lane {l} budget {budget}");
        }
    }
}

#[test]
fn delta_limit_trips_identically_per_lane() {
    let src = "module tb;\n\
         reg a = 0;\n\
         always @(a) a <= ~a;\n\
         endmodule";
    let opts = SimOptions::default();
    let d = design(src, "tb");
    for got in run_batch(&d, &[None; 4], &opts) {
        let err = got.expect_err("livelock must trip");
        assert_eq!(err.kind, RunErrorKind::DeltaLimit);
        assert_eq!(scalar(&d, None, &opts).expect_err("scalar"), err);
    }
}

#[test]
fn cancelled_token_times_out_every_lane() {
    let src = "module tb;\n\
         reg clk = 0;\n\
         always #1 clk = ~clk;\n\
         endmodule";
    let opts = SimOptions::default();
    opts.cancel.cancel();
    let d = design(src, "tb");
    for got in run_batch(&d, &[None, Some(9)], &opts) {
        let err = got.expect_err("cancelled run must abort");
        assert!(err.is_wall_timeout());
    }
}

#[test]
fn monitor_design_matches_every_lane() {
    let src = "module tb;\n\
         reg [3:0] v = 0;\n\
         initial $monitor(\"v=%0d\", v);\n\
         initial begin #1 v = 3; #1 v = 9; $error(\"boom %0d\", v); #1 $finish; end\n\
         endmodule";
    assert_equiv(src, "tb", &[None, Some(5), Some(6)], &SimOptions::default());
}

#[test]
fn empty_batch_returns_no_results() {
    let d = design("module tb; initial $finish; endmodule", "tb");
    assert!(run_batch(&d, &[], &SimOptions::default()).is_empty());
}

#[test]
fn repeated_seeds_share_one_result() {
    let src = "module tb;\n\
         reg [31:0] r;\n\
         initial begin\n\
           r = $random;\n\
           if (r[0]) #1 $display(\"odd\");\n\
           $display(\"%h\", r);\n\
           $finish;\n\
         end\n\
         endmodule";
    let seeds: Vec<Option<u64>> = (0..8).map(|i| Some(i % 3 * 17 + 1)).collect();
    assert_equiv(src, "tb", &seeds, &SimOptions::default());
}

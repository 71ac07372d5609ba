//! The CI smoke scenario: one daemon, ~100 mixed-priority requests from
//! 4 concurrent clients — one of which disconnects mid-request — then a
//! graceful drain. Pass criteria: every surviving request gets a
//! response, the daemon records zero panics and sheds nothing (its queue
//! is sized for the storm), and the drain completes (the socket file
//! disappears).
//!
//! CI runs this under a hard `timeout` wrapper, so a hang is a failure,
//! not a stuck job.

use dda_runtime::Priority;
use dda_serve::client::Client;
use dda_serve::proto::{ReqBody, Request, RespBody};
use dda_serve::service::{ServeOptions, Server};
use std::path::PathBuf;

fn sock() -> PathBuf {
    std::env::temp_dir().join(format!("dda-smoke-{}.sock", std::process::id()))
}

fn mixed_request(client: u64, i: u64) -> Request {
    let id = client * 1_000 + i;
    let priority = if (client + i).is_multiple_of(3) {
        Priority::High
    } else {
        Priority::Normal
    };
    let body = match i % 4 {
        0 => ReqBody::Score {
            source: format!(
                "module sm{client}_{i}(input in, output out);\nassign out = in;\nendmodule\n"
            ),
            problem: None,
            testbench: Some(format!(
                "module tb;\nreg in; wire out;\nsm{client}_{i} dut(.in(in), .out(out));\n\
                 integer pass; integer total;\ninitial begin\n  pass = 0; total = 0;\n  \
                 in = 0; #1 total = total + 1; if (out === 1'b0) pass = pass + 1;\n  \
                 in = 1; #1 total = total + 1; if (out === 1'b1) pass = pass + 1;\n  \
                 $display(\"RESULT %0d %0d\", pass, total);\n  $finish;\nend\nendmodule\n"
            )),
            top: "tb".to_string(),
            runs: 1,
        },
        1 => ReqBody::Generate {
            instruct: "give me the Verilog module of this description.".to_string(),
            prompt: format!("A {i}-bit counter with synchronous reset."),
            temperature: 0.1,
            seed: id,
        },
        2 => ReqBody::Repair {
            name: format!("broken{client}_{i}"),
            source: "module broken(input a output y);\nassign y = a;\nendmodule\n".to_string(),
            budget: 40,
        },
        _ => ReqBody::Augment {
            name: format!("aug{client}_{i}"),
            source: format!(
                "module aug{client}_{i}(input clk, input rst, output reg [3:0] q);\n\
                 always @(posedge clk) begin\n  if (rst) q <= 4'd0;\n  else q <= q + 4'd1;\nend\n\
                 endmodule\n"
            ),
            seed: id,
        },
    };
    Request {
        id,
        priority,
        deadline_ms: Some(30_000),
        body,
    }
}

#[test]
fn smoke_storm_of_mixed_clients() {
    let path = sock();
    let opts = ServeOptions {
        workers: 2,
        queue_capacity: 256, // admit the whole storm: this test is about completion, not shedding
        model_modules: 0,
        ..ServeOptions::default()
    };
    let server = Server::start(&path, &opts).unwrap();

    let per_client = 25u64;
    let mut joins = Vec::new();
    for client_id in 0..4u64 {
        let path = path.clone();
        joins.push(std::thread::spawn(move || -> (u64, u64) {
            let mut c = Client::connect(&path).expect("connect");
            if client_id == 3 {
                // The rude client: pipeline a handful of requests, then
                // vanish mid-conversation without reading a single reply.
                for i in 0..6 {
                    c.send(&mixed_request(client_id, i)).expect("send");
                }
                return (0, 0);
            }
            let mut ok = 0u64;
            let mut errors = 0u64;
            for i in 0..per_client {
                c.send(&mixed_request(client_id, i)).expect("send");
            }
            for _ in 0..per_client {
                match c.recv().expect("every request gets a response").body {
                    RespBody::Error { .. } => errors += 1,
                    _ => ok += 1,
                }
            }
            (ok, errors)
        }));
    }
    let mut total_ok = 0;
    let mut total_errors = 0;
    for j in joins {
        let (ok, errors) = j.join().expect("client thread must not panic");
        total_ok += ok;
        total_errors += errors;
    }
    assert_eq!(
        total_ok + total_errors,
        3 * per_client,
        "a surviving client lost a response"
    );
    // With a queue big enough for the whole storm and generous deadlines,
    // everything should actually succeed.
    assert_eq!(total_errors, 0, "storm produced unexpected errors");

    // Zero daemon panics, nothing shed, and the daemon is still fully alive.
    let mut c = Client::connect(&path).unwrap();
    match c
        .call(&Request {
            id: 9_999,
            priority: Priority::High,
            deadline_ms: None,
            body: ReqBody::Stats,
        })
        .unwrap()
        .body
    {
        RespBody::Stats(s) => {
            assert_eq!(
                s.panics, 0,
                "daemon caught panics during the smoke storm: {s:?}"
            );
            assert_eq!(s.shed, 0, "storm was shed despite a sized queue: {s:?}");
            assert!(s.completed >= 3 * per_client, "stats undercount: {s:?}");
        }
        other => panic!("expected stats, got {other:?}"),
    }
    let resp = c
        .call(&Request {
            id: 10_000,
            priority: Priority::Normal,
            deadline_ms: None,
            body: ReqBody::Shutdown,
        })
        .unwrap();
    assert_eq!(resp.body, RespBody::ShuttingDown);
    server.join();
    assert!(!path.exists(), "socket file must be unlinked after drain");
}

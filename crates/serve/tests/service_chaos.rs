//! Service-level chaos battery (tentpole proof obligations).
//!
//! Each test starts a real daemon on its own socket and attacks it the
//! way production traffic would: slow clients, torn frames, mid-request
//! disconnects, deadline storms, overload bursts, poisoned requests, and
//! cache thrash. The common assertion everywhere: the daemon never dies
//! — after each attack it still answers a fresh `ping` and drains
//! cleanly.

use dda_runtime::Priority;
use dda_serve::client::Client;
use dda_serve::proto::{ErrorCode, ReqBody, Request, RespBody, Response};
use dda_serve::service::{ServeOptions, Server};
use std::io::Write;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn sock(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("dda-chaos-{}-{name}.sock", std::process::id()))
}

fn fast_opts() -> ServeOptions {
    ServeOptions {
        model_modules: 0,
        ..ServeOptions::default()
    }
}

fn req(id: u64, body: ReqBody) -> Request {
    Request {
        id,
        priority: Priority::Normal,
        deadline_ms: None,
        body,
    }
}

fn ping_ok(path: &std::path::Path, id: u64) {
    let mut c = Client::connect(path).expect("daemon must accept connections");
    let resp = c
        .call(&req(id, ReqBody::Ping))
        .expect("daemon must answer ping");
    assert_eq!(resp.body, RespBody::Pong, "daemon answered ping wrongly");
}

/// A module + testbench pair that passes quickly; `tag` makes the design
/// source unique so each use is a distinct cache key.
fn quick_score(tag: usize) -> ReqBody {
    ReqBody::Score {
        source: format!("module pass_w{tag}(input in, output out);\nassign out = in;\nendmodule\n"),
        problem: None,
        testbench: Some(format!(
            "module tb;\nreg in; wire out;\npass_w{tag} dut(.in(in), .out(out));\n\
             integer pass; integer total;\ninitial begin\n  pass = 0; total = 0;\n  \
             in = 0; #1 total = total + 1; if (out === 1'b0) pass = pass + 1;\n  \
             in = 1; #1 total = total + 1; if (out === 1'b1) pass = pass + 1;\n  \
             $display(\"RESULT %0d %0d\", pass, total);\n  $finish;\nend\nendmodule\n"
        )),
        top: "tb".to_string(),
        runs: 1,
    }
}

/// A testbench that grinds a huge loop: it cannot finish inside any test
/// deadline, so the wall-clock budget is what stops it. Each step works
/// on a 65,536-bit register, so even a fast engine spends seconds before
/// the 2,000,000-step budget could stop it first.
fn slow_score(tag: usize) -> ReqBody {
    ReqBody::Score {
        source: format!("module grind{tag}(input in, output out);\nassign out = in;\nendmodule\n"),
        problem: None,
        testbench: Some(format!(
            "module tb;\nreg [63:0] i; reg [65535:0] acc;\nwire out;\nreg in;\n\
             grind{tag} dut(.in(in), .out(out));\ninitial begin\n  acc = 0;\n  \
             for (i = 0; i < 64'd100000000; i = i + 1) acc = (acc + i) ^ (acc << 1);\n  \
             $display(\"RESULT 1 1\");\n  $finish;\nend\nendmodule\n"
        )),
        top: "tb".to_string(),
        runs: 1,
    }
}

#[test]
fn slow_client_is_served_not_dropped() {
    let path = sock("slowclient");
    let server = Server::start(&path, &fast_opts()).unwrap();

    // Dribble a ping frame a few bytes at a time with pauses: the reader
    // must block per-connection without stalling anyone else.
    let mut raw = UnixStream::connect(&path).unwrap();
    let payload = req(7, ReqBody::Ping).to_line();
    let mut frame = Vec::new();
    frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    frame.extend_from_slice(payload.as_bytes());
    for chunk in frame.chunks(3) {
        raw.write_all(chunk).unwrap();
        raw.flush().unwrap();
        // Another client gets served *while* the slow one dribbles.
        ping_ok(&path, 1000);
        std::thread::sleep(Duration::from_millis(2));
    }
    let resp = dda_serve::wire::read_frame(&mut raw, dda_serve::wire::MAX_FRAME)
        .unwrap()
        .expect("response for the dribbled frame");
    let resp = Response::from_line(&resp).unwrap();
    assert_eq!(resp.id, 7);
    assert_eq!(resp.body, RespBody::Pong);

    server.stop();
    server.join();
}

#[test]
fn torn_frames_do_not_kill_the_daemon() {
    let path = sock("torn");
    let server = Server::start(&path, &fast_opts()).unwrap();

    // Torn mid-prefix.
    {
        let mut raw = UnixStream::connect(&path).unwrap();
        raw.write_all(&[0u8, 1]).unwrap();
    } // dropped: EOF mid-prefix
      // Torn mid-body.
    {
        let mut raw = UnixStream::connect(&path).unwrap();
        raw.write_all(&100u32.to_be_bytes()).unwrap();
        raw.write_all(b"only a little").unwrap();
    } // dropped: EOF mid-body
    ping_ok(&path, 1);

    server.stop();
    server.join();
}

#[test]
fn oversized_frame_gets_structured_error_then_close() {
    let path = sock("oversized");
    let opts = ServeOptions {
        max_frame: 512,
        ..fast_opts()
    };
    let server = Server::start(&path, &opts).unwrap();

    let mut c = Client::connect(&path).unwrap();
    // write_frame imposes no client-side limit; the server's does the work.
    let big = "x".repeat(2048);
    dda_serve::wire::write_frame(c.stream_mut(), &big).unwrap();
    match c.recv() {
        Ok(resp) => match resp.body {
            RespBody::Error { code, .. } => assert_eq!(code, ErrorCode::BadRequest),
            other => panic!("expected bad_request, got {other:?}"),
        },
        Err(e) => panic!("expected a structured error response, got {e}"),
    }
    // The stream is out of sync after an oversized frame: server closes it.
    assert!(c.recv().is_err(), "connection should be closed");
    ping_ok(&path, 2);

    server.stop();
    server.join();
}

#[test]
fn invalid_json_is_an_error_response_not_a_panic() {
    let path = sock("badjson");
    let server = Server::start(&path, &fast_opts()).unwrap();

    let mut c = Client::connect(&path).unwrap();
    for bad in ["", "not json at all", "{\"ev\": \"augment\"}", "[1,2,3]"] {
        dda_serve::wire::write_frame(c.stream_mut(), bad).unwrap();
        let resp = c.recv().expect("structured response for malformed JSON");
        match resp.body {
            RespBody::Error { code, .. } => assert_eq!(code, ErrorCode::BadRequest),
            other => panic!("expected bad_request for {bad:?}, got {other:?}"),
        }
    }
    // Connection is still usable: the frames themselves were sound.
    let resp = c.call(&req(5, ReqBody::Ping)).unwrap();
    assert_eq!(resp.body, RespBody::Pong);

    server.stop();
    server.join();
}

/// What a Python client's `json.dumps` writes by default: ASCII only,
/// an astral character as a UTF-16 surrogate pair. The daemon answers
/// it, and still answers a mistyped boolean with `bad_request`.
#[test]
fn ascii_escaped_requests_are_answered() {
    let path = sock("asciijson");
    let server = Server::start(&path, &fast_opts()).unwrap();

    let mut c = Client::connect(&path).unwrap();
    let frame = r#"{"ev": "generate", "id": 3, "prompt": "\ud83d\ude80 a counter \u00e9\b"}"#;
    dda_serve::wire::write_frame(c.stream_mut(), frame).unwrap();
    let resp = c.recv().expect("response to an ASCII-escaped request");
    assert_eq!(resp.id, 3);
    assert!(
        matches!(resp.body, RespBody::Generated { .. }),
        "expected ok, got {:?}",
        resp.body
    );

    let frame = r#"{"ev": "agent", "id": 4, "problem": "basic4", "early_exit": "true"}"#;
    dda_serve::wire::write_frame(c.stream_mut(), frame).unwrap();
    match c.recv().unwrap().body {
        RespBody::Error { code, message } => {
            assert_eq!(code, ErrorCode::BadRequest);
            assert!(message.contains("early_exit"), "{message}");
        }
        other => panic!("expected bad_request, got {other:?}"),
    }

    server.stop();
    server.join();
}

/// A float field past the integer range (`1e20` displays as a 21-digit
/// integer) encodes in exponent form, so the daemon parses the request
/// instead of answering `bad_request`.
#[test]
fn huge_float_fields_are_answered() {
    let path = sock("hugefloat");
    let server = Server::start(&path, &fast_opts()).unwrap();

    let mut c = Client::connect(&path).unwrap();
    let body = ReqBody::Generate {
        instruct: "give me the Verilog module of this description.".to_string(),
        prompt: "A 4-bit counter with synchronous reset.".to_string(),
        temperature: 1e20,
        seed: 1,
    };
    let resp = c.call(&req(6, body)).unwrap();
    assert!(
        matches!(resp.body, RespBody::Generated { .. }),
        "expected ok, got {:?}",
        resp.body
    );

    server.stop();
    server.join();
}

#[test]
fn mid_request_disconnect_is_survived() {
    let path = sock("middisc");
    let server = Server::start(&path, &fast_opts()).unwrap();

    for i in 0..3 {
        let mut c = Client::connect(&path).unwrap();
        c.send(&req(i, quick_score(9000 + i as usize))).unwrap();
        drop(c); // vanish before the response is written
    }
    // The daemon finishes (or sheds) that work and keeps serving.
    std::thread::sleep(Duration::from_millis(100));
    ping_ok(&path, 1);

    server.stop();
    server.join();
}

#[test]
fn overload_sheds_and_control_plane_stays_responsive() {
    let path = sock("overload");
    let opts = ServeOptions {
        workers: 1,
        queue_capacity: 2,
        default_deadline: Some(Duration::from_millis(400)),
        ..fast_opts()
    };
    let server = Server::start(&path, &opts).unwrap();

    let mut c = Client::connect(&path).unwrap();
    for i in 0..6u64 {
        c.send(&req(i, slow_score(100 + i as usize))).unwrap();
    }
    // While the burst grinds, the control plane answers immediately.
    let t0 = Instant::now();
    ping_ok(&path, 777);
    assert!(
        t0.elapsed() < Duration::from_millis(250),
        "ping took {:?} under load",
        t0.elapsed()
    );

    let mut overloaded = 0;
    let mut deadline = 0;
    for _ in 0..6 {
        match c.recv().expect("all six requests get responses").body {
            RespBody::Error {
                code: ErrorCode::Overloaded,
                ..
            } => overloaded += 1,
            RespBody::Error {
                code: ErrorCode::Deadline,
                ..
            } => deadline += 1,
            other => panic!("unexpected response under overload: {other:?}"),
        }
    }
    assert!(
        overloaded >= 3,
        "bounded queue (cap 2) admitted too much: {overloaded} shed"
    );
    assert_eq!(overloaded + deadline, 6);

    server.stop();
    server.join();
}

#[test]
fn deadline_storm_times_every_request_out() {
    let path = sock("storm");
    let opts = ServeOptions {
        workers: 2,
        queue_capacity: 64,
        ..fast_opts()
    };
    let server = Server::start(&path, &opts).unwrap();

    let mut c = Client::connect(&path).unwrap();
    let n = 12u64;
    for i in 0..n {
        c.send(&Request {
            id: i,
            priority: Priority::Normal,
            deadline_ms: Some(100),
            body: slow_score(200 + i as usize),
        })
        .unwrap();
    }
    let mut seen = vec![false; n as usize];
    for _ in 0..n {
        let resp = c.recv().expect("every storm request gets a response");
        match resp.body {
            RespBody::Error {
                code: ErrorCode::Deadline,
                ..
            } => {}
            other => panic!("id {} should have timed out, got {other:?}", resp.id),
        }
        seen[resp.id as usize] = true;
    }
    assert!(seen.iter().all(|s| *s), "a response id went missing");
    ping_ok(&path, 1);

    server.stop();
    server.join();
}

#[test]
fn poison_is_isolated_and_counted() {
    let path = sock("poison");
    let opts = ServeOptions {
        fault_injection: true,
        ..fast_opts()
    };
    let server = Server::start(&path, &opts).unwrap();

    let mut c = Client::connect(&path).unwrap();
    for i in 0..3u64 {
        let resp = c.call(&req(i, ReqBody::Poison)).unwrap();
        match resp.body {
            RespBody::Error { code, .. } => assert_eq!(code, ErrorCode::Panic),
            other => panic!("expected panic error, got {other:?}"),
        }
    }
    // Workers survived all three panics; real work still completes.
    let resp = c.call(&req(50, quick_score(50))).unwrap();
    match resp.body {
        RespBody::Scored {
            verdict, pass_rate, ..
        } => {
            assert_eq!(verdict, "scored");
            assert!((pass_rate - 1.0).abs() < 1e-9);
        }
        other => panic!("expected a score after poisons, got {other:?}"),
    }
    match c.call(&req(51, ReqBody::Stats)).unwrap().body {
        RespBody::Stats(s) => assert!(s.panics >= 3, "panics uncounted: {s:?}"),
        other => panic!("expected stats, got {other:?}"),
    }

    server.stop();
    server.join();
}

#[test]
fn cache_thrash_stays_correct_and_hits_on_revisit() {
    let path = sock("thrash");
    let server = Server::start(&path, &fast_opts()).unwrap();

    let designs = 25usize;
    let before = dda_sim::cache::stats();
    let mut c = Client::connect(&path).unwrap();
    // Two passes over the same distinct designs, pipelined.
    for round in 0..2u64 {
        for t in 0..designs {
            c.send(&req(round * 1000 + t as u64, quick_score(300 + t)))
                .unwrap();
        }
    }
    for _ in 0..(2 * designs) {
        let resp = c.recv().expect("every thrash request gets a response");
        match resp.body {
            RespBody::Scored {
                verdict, pass_rate, ..
            } => {
                assert_eq!(verdict, "scored");
                assert!((pass_rate - 1.0).abs() < 1e-9, "thrash corrupted a result");
            }
            other => panic!("unexpected response under thrash: {other:?}"),
        }
    }
    let after = dda_sim::cache::stats();
    // The second pass re-scores designs the first pass compiled; those must
    // be cache hits (global counters, so use deltas — other tests in this
    // binary only ever add).
    assert!(
        after.hits - before.hits >= designs as u64,
        "revisits missed the cache: {before:?} -> {after:?}"
    );

    server.stop();
    server.join();
}

#[test]
fn graceful_drain_answers_the_backlog() {
    let path = sock("drain");
    let opts = ServeOptions {
        workers: 1,
        queue_capacity: 64,
        ..fast_opts()
    };
    let server = Server::start(&path, &opts).unwrap();

    let mut c = Client::connect(&path).unwrap();
    let backlog = 5u64;
    for i in 1..=backlog {
        c.send(&req(i, quick_score(400 + i as usize))).unwrap();
    }
    c.send(&req(99, ReqBody::Shutdown)).unwrap();

    let mut got_shutdown_ack = false;
    let mut scored = 0;
    for _ in 0..=backlog {
        let resp = c.recv().expect("backlog responses must be written");
        match resp.body {
            RespBody::ShuttingDown => {
                assert_eq!(resp.id, 99);
                got_shutdown_ack = true;
            }
            RespBody::Scored { verdict, .. } => {
                assert_eq!(verdict, "scored");
                scored += 1;
            }
            other => panic!("unexpected response during drain: {other:?}"),
        }
    }
    assert!(got_shutdown_ack);
    assert_eq!(scored, backlog, "admitted work was dropped on drain");

    // join() returns only after full drain; the socket file is gone and
    // new connections are refused.
    server.join();
    assert!(Client::connect(&path).is_err(), "socket should be unlinked");
}

#[test]
fn priorities_hold_under_mixed_load() {
    let path = sock("prio");
    let opts = ServeOptions {
        workers: 1,
        queue_capacity: 64,
        default_deadline: Some(Duration::from_secs(30)),
        // Aging would *correctly* let a normal job that waited out the jam
        // beat the high-priority one; push it out of the way so this test
        // observes the raw priority order.
        age_limit: Duration::from_secs(30),
        ..fast_opts()
    };
    let server = Server::start(&path, &opts).unwrap();

    let mut c = Client::connect(&path).unwrap();
    // Jam the single worker so subsequent requests queue behind it.
    c.send(&Request {
        id: 0,
        priority: Priority::Normal,
        deadline_ms: Some(300),
        body: slow_score(500),
    })
    .unwrap();
    std::thread::sleep(Duration::from_millis(50)); // let it start running
    for (id, prio) in [
        (1, Priority::Normal),
        (2, Priority::Normal),
        (3, Priority::High),
    ] {
        c.send(&Request {
            id,
            priority: prio,
            deadline_ms: Some(5_000),
            body: quick_score(510 + id as usize),
        })
        .unwrap();
    }
    let order: Vec<u64> = (0..4).map(|_| c.recv().unwrap().id).collect();
    // The jammed request (0) dies to its deadline; among the queued three,
    // high priority (3) must be served before the normals (1, 2).
    let pos = |id: u64| order.iter().position(|x| *x == id).unwrap();
    assert!(
        pos(3) < pos(1) && pos(3) < pos(2),
        "high priority did not jump the queue: {order:?}"
    );

    server.stop();
    server.join();
}

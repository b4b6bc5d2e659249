//! Integration tests for `tdq serve` — the long-lived NDJSON session
//! mode. The stdio transport is also pinned byte-for-byte by the golden
//! transcript test in `cli_golden.rs`; here the focus is behavior:
//! cross-request cache warmth, concurrent `--listen` clients sharing one
//! engine, stats visibility, and cancellation-clean shutdown.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn tdq() -> Command {
    Command::new(env!("CARGO_BIN_EXE_tdq"))
}

/// A wp request for one of two isomorphism classes, disguised per client
/// so the dedup visibly happens on canonical keys, not on input bytes.
fn wp_request(id: &str, client: usize, implied: bool) -> String {
    let (s, g, z) = (
        format!("s{client}"),
        format!("g{client}"),
        format!("z{client}"),
    );
    if implied {
        format!(
            "{{\"id\":\"{id}\",\"op\":\"wp\",\"alphabet\":[\"{s}\",\"{g}\",\"{z}\"],\
             \"a0\":\"{s}\",\"zero\":\"{z}\",\
             \"eqs\":[\"{g} {g} = {s}\",\"{g} {g} = {z}\"]}}"
        )
    } else {
        format!(
            "{{\"id\":\"{id}\",\"op\":\"wp\",\"alphabet\":[\"{s}\",\"{z}\"],\
             \"a0\":\"{s}\",\"zero\":\"{z}\",\"eqs\":[]}}"
        )
    }
}

/// Waits for the child to exit, killing it after a deadline so a broken
/// shutdown path fails the test instead of hanging CI.
fn wait_with_deadline(child: &mut Child, deadline: Duration) -> std::process::ExitStatus {
    let start = Instant::now();
    loop {
        if let Some(status) = child.try_wait().expect("try_wait") {
            return status;
        }
        if start.elapsed() > deadline {
            child.kill().ok();
            panic!("tdq serve did not exit within {deadline:?} after shutdown");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn stdio_session_warms_cache_and_stops_at_shutdown() {
    let mut child = tdq()
        .args(["serve", "--stdio"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn tdq serve --stdio");
    let mut stdin = child.stdin.take().expect("stdin");
    // The whole script up front: sequential processing replies in order,
    // and everything after `shutdown` must be ignored.
    let script = format!(
        "{}\n{}\n{}\n{}\n{}\n",
        wp_request("a", 0, true),
        wp_request("b", 1, true),
        "{\"id\":\"s\",\"op\":\"stats\"}",
        "{\"id\":\"q\",\"op\":\"shutdown\"}",
        wp_request("never", 2, true),
    );
    stdin.write_all(script.as_bytes()).expect("write script");
    drop(stdin);

    let status = wait_with_deadline(&mut child, Duration::from_secs(60));
    assert!(status.success());
    let mut out = String::new();
    child
        .stdout
        .take()
        .expect("stdout")
        .read_to_string(&mut out)
        .expect("read stdout");
    let lines: Vec<&str> = out.lines().collect();
    assert_eq!(lines.len(), 4, "no reply after shutdown:\n{out}");
    assert!(lines[0].contains("\"id\":\"a\"") && lines[0].contains("\"cached\":false"));
    assert!(
        lines[1].contains("\"id\":\"b\"") && lines[1].contains("\"cached\":true"),
        "renamed duplicate hits the warm cache: {}",
        lines[1]
    );
    assert_eq!(
        lines[2],
        "{\"id\":\"s\",\"ok\":true,\"op\":\"stats\",\"requests\":2,\"cache_hits\":1,\
         \"solved\":1,\"keys_cached\":1,\"evictions\":0}"
    );
    assert_eq!(lines[3], "{\"id\":\"q\",\"ok\":true,\"op\":\"shutdown\"}");
}

/// The acceptance scenario: three concurrent clients against one
/// `serve --listen` engine — correct answers everywhere, cache hits from
/// one client's work visible to the others and in `stats`, and a clean
/// process exit on `shutdown`.
#[test]
fn three_concurrent_listen_clients_share_the_engine() {
    let mut child = tdq()
        .args(["serve", "--listen", "127.0.0.1:0"])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn tdq serve --listen");
    // The ready line announces the bound address (port 0 ⇒ ephemeral).
    let mut server_out = BufReader::new(child.stdout.take().expect("stdout"));
    let mut ready = String::new();
    server_out.read_line(&mut ready).expect("ready line");
    let addr = ready
        .trim()
        .strip_prefix("{\"serving\":\"")
        .and_then(|s| s.strip_suffix("\"}"))
        .unwrap_or_else(|| panic!("unexpected ready line: {ready:?}"))
        .to_owned();

    // Phase 1: three clients, each asking both isomorphism classes under
    // its own symbol names, concurrently.
    let replies: Vec<Vec<String>> = std::thread::scope(|s| {
        let addr = &addr;
        let handles: Vec<_> = (0..3)
            .map(|client| {
                s.spawn(move || {
                    let stream = TcpStream::connect(addr).expect("connect");
                    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
                    let mut writer = stream;
                    let mut replies = Vec::new();
                    for (i, implied) in [(0, true), (1, false), (2, true)] {
                        let req = wp_request(&format!("c{client}-{i}"), client, implied);
                        writeln!(writer, "{req}").expect("send");
                        let mut line = String::new();
                        reader.read_line(&mut line).expect("reply");
                        replies.push(line.trim().to_owned());
                    }
                    replies
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let mut solved_implied = 0;
    let mut hit_implied = 0;
    for (client, lines) in replies.iter().enumerate() {
        assert_eq!(lines.len(), 3);
        for (i, line) in lines.iter().enumerate() {
            assert!(
                line.contains("\"ok\":true"),
                "client {client} line {i}: {line}"
            );
            let expect_verdict = if i == 1 { "refuted" } else { "implied" };
            assert!(
                line.contains(&format!("\"verdict\":\"{expect_verdict}\"")),
                "client {client} line {i}: {line}"
            );
        }
        // Each client repeats the implied class (requests 0 and 2): the
        // second ask is a hit at the latest.
        assert!(
            lines[2].contains("\"cached\":true"),
            "client {client}: {:?}",
            lines[2]
        );
        solved_implied += usize::from(lines[0].contains("\"cached\":false"));
        hit_implied += usize::from(lines[0].contains("\"cached\":true"));
    }
    assert_eq!(solved_implied + hit_implied, 3);
    assert_eq!(
        solved_implied, 1,
        "single-flight: exactly one client solved the shared implied class"
    );

    // Phase 2: a fourth connection reads the cumulative stats and shuts
    // the server down.
    let stream = TcpStream::connect(&addr).expect("connect control");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    writeln!(writer, "{{\"id\":\"st\",\"op\":\"stats\"}}").expect("send stats");
    let mut stats = String::new();
    reader.read_line(&mut stats).expect("stats reply");
    // 9 wp requests over 2 classes: 2 solves, 7 hits, all visible.
    assert!(
        stats.contains("\"requests\":9") && stats.contains("\"solved\":2"),
        "stats: {stats}"
    );
    assert!(stats.contains("\"cache_hits\":7"), "stats: {stats}");
    assert!(stats.contains("\"keys_cached\":2"), "stats: {stats}");

    writeln!(writer, "{{\"id\":\"bye\",\"op\":\"shutdown\"}}").expect("send shutdown");
    let mut bye = String::new();
    reader.read_line(&mut bye).expect("shutdown reply");
    assert_eq!(
        bye.trim(),
        "{\"id\":\"bye\",\"ok\":true,\"op\":\"shutdown\"}"
    );

    let status = wait_with_deadline(&mut child, Duration::from_secs(60));
    assert!(status.success(), "clean exit after shutdown");
}

#[test]
fn listen_clients_get_structured_errors_and_survive_them() {
    let mut child = tdq()
        .args(["serve", "--listen", "127.0.0.1:0", "--cache-cap", "8"])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn");
    let mut server_out = BufReader::new(child.stdout.take().expect("stdout"));
    let mut ready = String::new();
    server_out.read_line(&mut ready).expect("ready line");
    let addr = ready
        .trim()
        .strip_prefix("{\"serving\":\"")
        .and_then(|s| s.strip_suffix("\"}"))
        .expect("ready line")
        .to_owned();

    let stream = TcpStream::connect(&addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    let mut ask = |req: &str| -> String {
        writeln!(writer, "{req}").expect("send");
        let mut line = String::new();
        reader.read_line(&mut line).expect("reply");
        line.trim().to_owned()
    };
    // A malformed line must produce an error envelope, not kill the
    // connection; the next request still works.
    let err = ask("this is not json");
    assert!(
        err.starts_with("{\"id\":null,\"ok\":false,\"error\":{\"msg\":"),
        "{err}"
    );
    assert!(err.contains("\"byte\":0"), "{err}");
    let ok = ask(&wp_request("after-error", 0, false));
    assert!(ok.contains("\"verdict\":\"refuted\""), "{ok}");
    // Batch over the protocol, with per-item ids defaulted.
    let batch = ask("{\"id\":\"b\",\"op\":\"batch\",\"items\":[\
         {\"alphabet\":[\"A0\",\"0\"],\"eqs\":[]},\
         {\"alphabet\":[\"B\",\"z\"],\"a0\":\"B\",\"zero\":\"z\",\"eqs\":[]}]}");
    assert!(batch.contains("\"id\":\"item1\""), "{batch}");
    assert!(
        batch.contains("\"cache_hits\":2"),
        "warm from the wp above: {batch}"
    );
    assert!(batch.contains("\"evictions\":0"), "{batch}");

    // A line nested far deeper than the JSON parser's cap fails alone: it
    // gets an error reply, and a fresh connection is still served.
    let ask_fresh = |req: &str| -> String {
        let stream = TcpStream::connect(&addr).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut writer = stream;
        writeln!(writer, "{req}").expect("send");
        let mut line = String::new();
        reader.read_line(&mut line).expect("reply");
        line.trim().to_owned()
    };
    let err = ask_fresh(&"[".repeat(10_000));
    assert!(err.starts_with("{\"id\":null,\"ok\":false,"), "{err}");
    assert!(err.contains("nesting deeper than 64"), "{err}");
    let ok = ask_fresh(&wp_request("after-nesting", 0, true));
    assert!(ok.contains("\"verdict\":\"implied\""), "{ok}");

    let bye = ask("{\"id\":\"q\",\"op\":\"shutdown\"}");
    assert!(bye.contains("\"op\":\"shutdown\""));
    let status = wait_with_deadline(&mut child, Duration::from_secs(60));
    assert!(status.success());
}

/// `cache_load` reads at most the image a cache of the server's capacity
/// can save: `--cache-cap 1` over 16 shards is 16 entries, 832 bytes. A
/// device and a larger file both get an error reply, nothing is loaded,
/// and the next `wp` is answered, on the same connection and a fresh one.
#[test]
fn listen_cache_load_refuses_devices_and_oversized_files() {
    let dir = std::env::temp_dir().join(format!("tdq-serve-load-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let big = dir.join("big.tdsnap");
    std::fs::write(&big, vec![0u8; 4096]).expect("write");
    let mut child = tdq()
        .args(["serve", "--listen", "127.0.0.1:0", "--cache-cap", "1"])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn");
    let mut server_out = BufReader::new(child.stdout.take().expect("stdout"));
    let mut ready = String::new();
    server_out.read_line(&mut ready).expect("ready line");
    let addr = ready
        .trim()
        .strip_prefix("{\"serving\":\"")
        .and_then(|s| s.strip_suffix("\"}"))
        .expect("ready line")
        .to_owned();
    let connect = || {
        let stream = TcpStream::connect(&addr).expect("connect");
        (BufReader::new(stream.try_clone().expect("clone")), stream)
    };
    let ask = |conn: &mut (BufReader<TcpStream>, TcpStream), req: &str| -> String {
        writeln!(conn.1, "{req}").expect("send");
        let mut line = String::new();
        conn.0.read_line(&mut line).expect("reply");
        line.trim().to_owned()
    };

    let mut conn = connect();
    let err = ask(
        &mut conn,
        "{\"id\":\"z\",\"op\":\"cache_load\",\"path\":\"/dev/zero\"}",
    );
    assert!(err.starts_with("{\"id\":\"z\",\"ok\":false,"), "{err}");
    assert!(err.contains("not a regular file"), "{err}");
    let path_json = big.to_string_lossy().replace('\\', "\\\\");
    let err = ask(
        &mut conn,
        &format!("{{\"id\":\"big\",\"op\":\"cache_load\",\"path\":\"{path_json}\"}}"),
    );
    assert!(err.starts_with("{\"id\":\"big\",\"ok\":false,"), "{err}");
    assert!(err.contains("larger than 832 bytes"), "{err}");
    let ok = ask(&mut conn, &wp_request("after-load", 0, true));
    assert!(ok.contains("\"verdict\":\"implied\""), "{ok}");
    assert!(ok.contains("\"cached\":false"), "nothing was loaded: {ok}");
    let ok = ask(&mut connect(), &wp_request("fresh", 1, false));
    assert!(ok.contains("\"verdict\":\"refuted\""), "{ok}");

    let bye = ask(&mut conn, "{\"id\":\"q\",\"op\":\"shutdown\"}");
    assert!(bye.contains("\"op\":\"shutdown\""));
    let status = wait_with_deadline(&mut child, Duration::from_secs(60));
    assert!(status.success());
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

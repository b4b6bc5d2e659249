//! The closed-loop load generator: one connection, driven from the calling
//! thread; it sends the next request only after the previous reply
//! arrived, and times request write → reply line.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::time::{Duration, Instant};

use crate::check::Tally;
use crate::server::Server;
use crate::stats::median;
use crate::workload::{Stream, Workload};

/// A late reply counts as missing.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// Windows the timed phase is cut into.
const WINDOWS: usize = 50;

/// Untimed traffic on the measured server before the timed phase.
const WARM_UP: Duration = Duration::from_secs(1);

/// Set-ups per end-to-end run when the set-up runs a warm phase; `setup_s`
/// is their median.
const WARM_SETUPS: usize = 9;

/// Set-ups per end-to-end run when the set-up is only the ~1 ms spawn, so
/// that sub-millisecond jitter cannot move the median.
const SPAWN_SETUPS: usize = 101;

/// Timed-phase questions after which the server's peak RSS is read, so
/// that it measures a fixed amount of work however fast the machine runs
/// (the cache of a cold workload grows with every question).
const RSS_QUESTIONS: u64 = 1000;

/// One client connection.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    line: String,
}

impl Client {
    pub fn connect(addr: &str) -> Result<Client, String> {
        let s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        s.set_nodelay(true).map_err(|e| e.to_string())?;
        s.set_read_timeout(Some(REPLY_TIMEOUT))
            .map_err(|e| e.to_string())?;
        let reader = BufReader::new(s.try_clone().map_err(|e| e.to_string())?);
        Ok(Client {
            writer: s,
            reader,
            line: String::new(),
        })
    }

    /// Sends one request line and returns the reply line, or `None` on a
    /// disconnect or timeout.
    pub fn call(&mut self, line: &str) -> Option<&str> {
        self.send(line)?;
        self.recv()
    }

    pub fn send(&mut self, line: &str) -> Option<()> {
        let mut out = Vec::with_capacity(line.len() + 1);
        out.extend_from_slice(line.as_bytes());
        out.push(b'\n');
        self.writer.write_all(&out).ok()
    }

    pub fn recv(&mut self) -> Option<&str> {
        self.line.clear();
        match self.reader.read_line(&mut self.line) {
            Ok(n) if n > 0 => Some(self.line.trim_end()),
            _ => None,
        }
    }
}

/// What one end-to-end run measured.
pub struct Timed {
    /// The timed phase's requests.
    pub tally: Tally,
    /// The warm-phase requests of every set-up and the warm-up traffic.
    pub warm: Tally,
    /// Reply latencies of the timed phase, in µs.
    pub latencies_us: Vec<f64>,
    pub elapsed_s: f64,
    /// Median over the windows of questions answered per second.
    pub questions_per_s: f64,
    /// Server CPU ms per question answered over the timed phase.
    pub server_cpu_ms_per_question: f64,
    pub server_peak_rss_mb: f64,
    /// Timed-phase questions answered when the peak RSS was read.
    pub rss_questions: u64,
    /// Median set-up time over the run's set-ups, in s.
    pub setup_s: f64,
    pub setups: usize,
    pub repeats: u64,
}

/// Starts a server and runs the workload's warm phase on it; returns the
/// server, the set-up time, and the warm phase's tally.
fn set_up(tdq: &Path, jobs: usize, stream: &mut Stream) -> Result<(Server, f64, Tally), String> {
    let t0 = Instant::now();
    let server = Server::spawn(tdq, jobs)?;
    let mut tally = Tally::default();
    let warm = stream.prewarm();
    if !warm.is_empty() {
        let mut client = Client::connect(&server.addr)?;
        for req in &warm {
            let reply = client.call(&req.line).map(str::to_owned);
            tally.record(req, reply.as_deref());
        }
    }
    Ok((server, t0.elapsed().as_secs_f64(), tally))
}

/// Runs one end-to-end measurement: the set-ups (all but the last server
/// shut down again; a single one unless `time_setup`), a second of untimed
/// warm-up traffic, then `seconds` of closed-loop traffic on the last
/// server.
pub fn run(
    tdq: &Path,
    workload: Workload,
    seed: u64,
    seconds: f64,
    jobs: usize,
    time_setup: bool,
) -> Result<Timed, String> {
    let mut setup_times = Vec::new();
    let mut warm_tally = Tally::default();
    let mut server = None;
    let mut stream = Stream::new(workload, seed);
    let setups = match (time_setup, stream.prewarm().is_empty()) {
        (false, _) => 1,
        (true, false) => WARM_SETUPS,
        (true, true) => SPAWN_SETUPS,
    };
    for i in 0..setups {
        // Every set-up replays the same warm phase from a fresh stream.
        stream = Stream::new(workload, seed);
        let (s, t, tally) = set_up(tdq, jobs, &mut stream)?;
        setup_times.push(t);
        warm_tally.merge(tally);
        if i + 1 < setups {
            s.shutdown()?;
        } else {
            server = Some(s);
        }
    }
    let server = server.ok_or("no server")?;
    let mut client = Client::connect(&server.addr)?;

    let warm_up_end = Instant::now() + WARM_UP;
    while Instant::now() < warm_up_end {
        let req = stream.next_req();
        let reply = client.call(&req.line);
        let missing = reply.is_none();
        warm_tally.record(&req, reply);
        if missing {
            return Err("the server closed the connection during warm-up".to_owned());
        }
    }

    // The timed phase is cut into WINDOWS equal windows; throughput is the
    // median over them, so a transient stall of the shared machine moves
    // one window, not the result. Server CPU is reported in 10 ms ticks,
    // too coarse per window for the cheap workloads, so CPU per question
    // is taken over the whole phase.
    let window = seconds / WINDOWS as f64;
    let mut tally = Tally::default();
    let mut latencies_us = Vec::new();
    let mut window_questions = [0u64; WINDOWS];
    let mut window_lat: Vec<Vec<f64>> = vec![Vec::new(); WINDOWS];
    let mut rss = None;
    let cpu0 = server.cpu_ms()?;
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let think: u64 = std::env::var("THINK").ok().and_then(|v| v.parse().ok()).unwrap_or(0);
    let mut think_rng = crate::gen::Rng::new(seed, 2);
    let pipe: usize = std::env::var("PIPE").ok().and_then(|v| v.parse().ok()).unwrap_or(1);
    let mut inflight: std::collections::VecDeque<(crate::workload::Req, Instant)> = Default::default();
    loop {
        while inflight.len() < pipe && Instant::now() < deadline {
            let req = stream.next_req();
            if think > 0 {
                std::thread::sleep(Duration::from_micros(think_rng.below(think as usize) as u64));
            }
            let t = Instant::now();
            if client.send(&req.line).is_none() { break; }
            inflight.push_back((req, t));
        }
        let Some((req, t)) = inflight.pop_front() else { break };
        let reply = client.recv();
        let done = Instant::now();
        let missing = reply.is_none();
        tally.record(&req, reply);
        if missing {
            break; // the connection is gone
        }
        latencies_us.push((done - t).as_secs_f64() * 1e6);
        let at = (done - start).as_secs_f64();
        if at < seconds {
            window_questions[((at / window) as usize).min(WINDOWS - 1)] += req.questions;
            window_lat[((at / window) as usize).min(WINDOWS - 1)].push((done - t).as_secs_f64() * 1e3);
        }
        if rss.is_none() && tally.questions >= RSS_QUESTIONS {
            rss = Some((server.peak_rss_mb()?, tally.questions));
        }
    }
    let elapsed_s = start.elapsed().as_secs_f64();
    let cpu_ms = server.cpu_ms()? - cpu0;
    let (server_peak_rss_mb, rss_questions) = match rss {
        Some(r) => r,
        None => (server.peak_rss_mb()?, tally.questions),
    };
    drop(client);
    server.shutdown()?;

    let mut rates: Vec<f64> = window_questions
        .iter()
        .map(|&q| q as f64 / window)
        .collect();
    let window_total: u64 = window_questions.iter().sum();
    {
        let mut st = setup_times.clone();
        st.sort_by(f64::total_cmp);
        eprintln!("EXP setups {:?}", &st[..st.len().min(12)]);
        use crate::stats::quantile as qq;
        let mut r = rates.clone();
        let mut wp50: Vec<f64> = window_lat.iter_mut().map(|v| qq(v, 0.5)).collect();
        let mut all = latencies_us.clone();
        eprintln!(
            "EXP est qps_med {} qps_p75 {} qps_p90 {} qps_max {} p50_all {} p50w_p10 {} p50w_p25 {} p50w_med {} p50w_min {} p25_all {}",
            qq(&mut r, 0.5), qq(&mut r, 0.75), qq(&mut r, 0.9), qq(&mut r, 1.0),
            qq(&mut all, 0.5) / 1e3, qq(&mut wp50, 0.1), qq(&mut wp50, 0.25), qq(&mut wp50, 0.5), qq(&mut wp50, 0.0), qq(&mut all, 0.25) / 1e3
        );
    }
    Ok(Timed {
        tally,
        warm: warm_tally,
        latencies_us,
        elapsed_s,
        questions_per_s: median(&mut rates),
        server_cpu_ms_per_question: cpu_ms / window_total.max(1) as f64,
        server_peak_rss_mb,
        rss_questions,
        setup_s: median(&mut setup_times),
        setups,
        repeats: stream.repeats(),
    })
}

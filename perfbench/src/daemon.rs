//! The `daemon` workload's load generator: one process driving a built
//! `presatd --stdin --jobs 2`.
//!
//! Four small tenants send `preimage`/`allsat` requests in an open loop at
//! a fixed rate; two heavy tenants each keep one `reach` job in flight
//! (closed loop, resubmitting on `done`). Small-request latency runs from
//! the request's due time to its `done` event, so a stalled generator or a
//! backed-up queue both show.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use presat_logic::rng::SplitMix64;
use presat_logic::{Cube, Lit, Var};
use presat_obs::JsonObject;
use presatd::json::Json;

use crate::gen::{Instance, OpKind};

/// `presatd`'s closed-loop small-request throughput with the two heavy
/// tenants running, from `--capacity` (seeds 1–3, 20 s each, on a shared
/// 2-vCPU x86-64 VM: 253, 230 and 233 requests/s).
const MEASURED_CAPACITY: f64 = 240.0;
/// The share of that capacity the open loop offers: queueing shows in the
/// latencies, but the daemon stays well clear of saturation.
const UTILISATION: f64 = 0.5;
/// Small requests per second, summed over the four small tenants.
pub const SMALL_RATE: f64 = UTILISATION * MEASURED_CAPACITY;
/// Fewest small requests one open-loop run sends.
const MIN_SMALL: usize = 100;
const SMALL_TENANTS: usize = 4;
/// Failed requests whose event line is printed to stderr.
const MAX_FAILURE_LINES: u64 = 10;
/// How long to wait for stragglers after the last small request is due.
const DRAIN: Duration = Duration::from_secs(30);

/// A running `presatd` with a reader thread timestamping its event lines.
pub struct Daemon {
    child: Child,
    stdin: Option<ChildStdin>,
    events: Receiver<(Instant, String)>,
    reader: Option<JoinHandle<()>>,
}

impl Daemon {
    pub fn spawn(program: &str) -> Result<Self, String> {
        let mut child = Command::new(program)
            .args(["--stdin", "--jobs", "2"])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {program}: {e}"))?;
        let stdin = child.stdin.take();
        let stdout = child.stdout.take().ok_or("presatd stdout not piped")?;
        let (tx, rx) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                // Streaming progress (a reach job emits one line per
                // iteration) is not needed; only `accepted`, `done` and
                // `error` are parsed.
                if line.contains(r#""event":"iteration""#) || line.contains(r#""event":"cubes""#) {
                    continue;
                }
                if tx.send((Instant::now(), line)).is_err() {
                    break;
                }
            }
        });
        Ok(Daemon {
            child,
            stdin,
            events: rx,
            reader: Some(reader),
        })
    }

    fn send(&mut self, line: &str) -> Result<(), String> {
        let stdin = self.stdin.as_mut().ok_or("presatd stdin closed")?;
        stdin
            .write_all(line.as_bytes())
            .and_then(|()| stdin.write_all(b"\n"))
            .and_then(|()| stdin.flush())
            .map_err(|e| format!("writing to presatd: {e}"))
    }

    /// Sends one request and waits for its `done` (set-up warm-up).
    pub fn warm_up(&mut self, inst: &Instance) -> Result<(), String> {
        self.send(&request(inst, "warmup", "warmup"))?;
        let deadline = Instant::now() + DRAIN;
        while Instant::now() < deadline {
            match self.events.recv_timeout(Duration::from_millis(100)) {
                Ok((_, line)) => {
                    let ev = Event::parse(&line)?;
                    if ev.id == "warmup" && (ev.kind == "done" || ev.kind == "error") {
                        return Ok(());
                    }
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => return Err("presatd exited".into()),
            }
        }
        Err("presatd warm-up timed out".into())
    }

    /// Peak resident set (`VmHWM`) of the daemon process, in MiB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        crate::status_mb(&format!("/proc/{}/status", self.child.id()), "VmHWM:")
    }

    /// Asks the daemon to shut down and waits for the process and the
    /// reader thread to end.
    pub fn shutdown(mut self) -> Result<(), String> {
        let _ = self.send(r#"{"op":"shutdown","id":"shutdown"}"#);
        drop(self.stdin.take());
        let deadline = Instant::now() + DRAIN;
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => break,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10))
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    break;
                }
            }
        }
        if let Some(r) = self.reader.take() {
            r.join().map_err(|_| "presatd reader thread panicked")?;
        }
        Ok(())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if self.reader.is_some() {
            drop(self.stdin.take());
            let _ = self.child.kill();
            let _ = self.child.wait();
            if let Some(r) = self.reader.take() {
                let _ = r.join();
            }
        }
    }
}

/// The request line for `inst`.
fn request(inst: &Instance, id: &str, session: &str) -> String {
    let mut o = JsonObject::new();
    match inst.kind {
        OpKind::AllSat { project } => {
            o.field_str("op", "allsat")
                .field_str("id", id)
                .field_str("session", session)
                .field_str("cnf", &inst.cnf)
                .field_u64("project", project as u64);
        }
        OpKind::Preimage(_) | OpKind::Reach => {
            let op = if inst.kind == OpKind::Reach {
                "reach"
            } else {
                "preimage"
            };
            o.field_str("op", op)
                .field_str("id", id)
                .field_str("session", session)
                .field_str("circuit", &inst.netlist)
                .field_str(
                    "target",
                    inst.target_spec
                        .as_deref()
                        .expect("daemon targets are one cube"),
                );
        }
    }
    o.finish()
}

/// The fields of one event line the load generator reads.
struct Event {
    id: String,
    kind: String,
    complete: bool,
    cubes: Option<Vec<String>>,
    wall_ns: Option<u64>,
}

impl Event {
    fn parse(line: &str) -> Result<Self, String> {
        let j = Json::parse(line).map_err(|e| format!("bad presatd event {line:?}: {e}"))?;
        let s = |k: &str| j.get(k).and_then(Json::as_str).unwrap_or("").to_string();
        let cubes = match j.get("cubes") {
            Some(Json::Arr(items)) => Some(
                items
                    .iter()
                    .map(|c| c.as_str().unwrap_or("").to_string())
                    .collect(),
            ),
            _ => None,
        };
        Ok(Event {
            id: s("id"),
            kind: s("event"),
            complete: j.get("complete").and_then(Json::as_bool).unwrap_or(false),
            cubes,
            wall_ns: j
                .get("stats")
                .and_then(|st| st.get("wall_time_ns"))
                .and_then(Json::as_u64),
        })
    }
}

/// A `preimage`/`reach` cube as printed by `Cube`'s `Display` (`x0 & !x3`,
/// `⊤` for the empty cube).
fn parse_state_cube(text: &str) -> Option<Cube> {
    if text == "⊤" {
        return Some(Cube::default());
    }
    let lits: Option<Vec<Lit>> = text
        .split(" & ")
        .map(|l| {
            let (neg, v) = match l.strip_prefix('!') {
                Some(rest) => (true, rest),
                None => (false, l),
            };
            let v: usize = v.strip_prefix('x')?.parse().ok()?;
            Some(Lit::with_phase(Var::new(v), !neg))
        })
        .collect();
    Cube::from_lits(lits?).ok()
}

/// An `allsat` cube as a DIMACS row (`-1 2 0`).
fn parse_dimacs_cube(text: &str) -> Option<Cube> {
    let mut lits = Vec::new();
    for tok in text.split_whitespace() {
        let v: i64 = tok.parse().ok()?;
        if v == 0 {
            break;
        }
        lits.push(Lit::with_phase(
            Var::new(v.unsigned_abs() as usize - 1),
            v > 0,
        ));
    }
    Cube::from_lits(lits).ok()
}

/// `true` if a `done` event's cubes denote the instance's reference set.
fn check_done(inst: &mut Instance, ev: &Event) -> bool {
    let Some(rows) = ev.cubes.as_ref() else {
        return false;
    };
    let parse = match inst.kind {
        OpKind::AllSat { .. } => parse_dimacs_cube,
        _ => parse_state_cube,
    };
    let cubes: Option<Vec<Cube>> = rows.iter().map(|r| parse(r)).collect();
    ev.complete && cubes.is_some_and(|c| inst.checker.check(&c))
}

/// What one load run measured. Latencies, times and answer sizes are
/// recorded only for answers that passed the check.
#[derive(Default)]
pub struct LoadResult {
    /// Small requests: due time to `done`, ms.
    pub latency_ms: Vec<f64>,
    /// Small-pool index of each `latency_ms` sample.
    pub latency_input: Vec<usize>,
    /// Small requests: due time to `accepted`, ms.
    pub accept_ms: Vec<f64>,
    /// Small requests: `accepted` to `done` minus the event's `wall_time_ns`.
    pub queue_ms: Vec<f64>,
    /// Small requests: the `done` event's `wall_time_ns`, ms.
    pub run_ms: Vec<f64>,
    /// Heavy reach jobs: submit to `done`, s.
    pub heavy_s: Vec<f64>,
    /// How late the generator sent each small request, ms.
    pub late_ms: Vec<f64>,
    pub answer_cubes: Vec<f64>,
    pub attempted: u64,
    /// Wrong answers, `error` events, incomplete results, or no answer.
    pub failed: u64,
    pub elapsed_s: f64,
}

/// How small requests arrive.
#[derive(Clone, Copy)]
pub enum Arrivals {
    /// Open loop: `SMALL_RATE` requests per second, at least `MIN_SMALL`
    /// in all, however fast the daemon answers.
    Open,
    /// Closed loop: each small tenant keeps one request in flight and
    /// resubmits on its answer, for the run's seconds. Its completion rate
    /// is the daemon's small-request capacity.
    Closed,
}

struct Pending {
    /// Index into the small pool, or into the heavy pool for heavy jobs.
    inst: usize,
    heavy: bool,
    due: Instant,
    accepted: Option<Instant>,
}

/// Drives `daemon` for `seconds`: the small stream plus the two closed-loop
/// heavy tenants. Small requests are drawn from `small` in a seeded order.
pub fn run_load(
    daemon: &mut Daemon,
    small: &mut [Instance],
    heavy: &mut [Instance],
    seconds: f64,
    arrivals: Arrivals,
    rng: &mut SplitMix64,
) -> Result<LoadResult, String> {
    let mut res = LoadResult::default();
    let total_small = match arrivals {
        Arrivals::Open => ((seconds * SMALL_RATE).ceil() as usize).max(MIN_SMALL),
        Arrivals::Closed => usize::MAX,
    };
    let mut order: Vec<usize> = Vec::new();
    let mut pending: HashMap<String, Pending> = HashMap::new();
    let start = Instant::now();
    let window = Duration::from_secs_f64(seconds);
    let mut heavy_seq = 0usize;
    for (h, inst) in heavy.iter().enumerate() {
        let id = format!("h{heavy_seq}");
        heavy_seq += 1;
        daemon.send(&request(inst, &id, &format!("heavy{h}")))?;
        pending.insert(
            id,
            Pending {
                inst: h,
                heavy: true,
                due: Instant::now(),
                accepted: None,
            },
        );
    }
    let mut sent = 0usize;
    let mut small_done = 0usize;
    let period = Duration::from_secs_f64(1.0 / SMALL_RATE);
    // When the next small request is due, if one is still to be sent.
    let next_due = |sent: usize, small_done: usize| -> Option<Instant> {
        match arrivals {
            Arrivals::Open => (sent < total_small).then(|| start + period * sent as u32),
            Arrivals::Closed => {
                (sent - small_done < SMALL_TENANTS && start.elapsed() < window).then(Instant::now)
            }
        }
    };
    let cutoff = match arrivals {
        Arrivals::Open => start + period * total_small as u32 + DRAIN,
        Arrivals::Closed => start + window + DRAIN,
    };
    while Instant::now() < cutoff {
        // Send every small request that is due.
        while let Some(due) = next_due(sent, small_done).filter(|&d| Instant::now() >= d) {
            if order.len() <= sent {
                let mut cycle: Vec<usize> = (0..small.len()).collect();
                rng.shuffle(&mut cycle);
                order.extend(cycle);
            }
            let inst = order[sent];
            let id = format!("s{sent}");
            daemon.send(&request(
                &small[inst],
                &id,
                &format!("small{}", sent % SMALL_TENANTS),
            ))?;
            res.late_ms.push(due.elapsed().as_secs_f64() * 1e3);
            pending.insert(
                id,
                Pending {
                    inst,
                    heavy: false,
                    due,
                    accepted: None,
                },
            );
            sent += 1;
        }
        let wait = match next_due(sent, small_done) {
            Some(due) => due.saturating_duration_since(Instant::now()),
            None if small_done == sent => break,
            None => Duration::from_millis(50),
        };
        let (at, line) = match daemon.events.recv_timeout(wait) {
            Ok(ev) => ev,
            Err(RecvTimeoutError::Timeout) => continue,
            Err(RecvTimeoutError::Disconnected) => return Err("presatd exited mid-run".into()),
        };
        let ev = Event::parse(&line)?;
        match ev.kind.as_str() {
            "accepted" => {
                if let Some(p) = pending.get_mut(&ev.id) {
                    p.accepted = Some(at);
                }
            }
            "done" | "error" => {
                let Some(p) = pending.remove(&ev.id) else {
                    continue;
                };
                let ok = ev.kind == "done" && {
                    let inst = if p.heavy {
                        &mut heavy[p.inst]
                    } else {
                        &mut small[p.inst]
                    };
                    check_done(inst, &ev)
                };
                res.attempted += 1;
                if !ok {
                    res.failed += 1;
                    if res.failed <= MAX_FAILURE_LINES {
                        eprintln!("daemon: request {} failed: {}", ev.id, truncate(&line));
                    }
                }
                if p.heavy {
                    if ok {
                        res.heavy_s.push((at - p.due).as_secs_f64());
                    }
                    let id = format!("h{heavy_seq}");
                    heavy_seq += 1;
                    daemon.send(&request(&heavy[p.inst], &id, &format!("heavy{}", p.inst)))?;
                    pending.insert(
                        id,
                        Pending {
                            inst: p.inst,
                            heavy: true,
                            due: Instant::now(),
                            accepted: None,
                        },
                    );
                    continue;
                }
                small_done += 1;
                if !ok {
                    continue;
                }
                let wall_ms = ev.wall_ns.unwrap_or(0) as f64 / 1e6;
                res.latency_ms.push((at - p.due).as_secs_f64() * 1e3);
                res.latency_input.push(p.inst);
                res.run_ms.push(wall_ms);
                if let Some(acc) = p.accepted {
                    res.accept_ms.push((acc - p.due).as_secs_f64() * 1e3);
                    res.queue_ms
                        .push(((at - acc).as_secs_f64() * 1e3 - wall_ms).max(0.0));
                }
                res.answer_cubes
                    .push(ev.cubes.as_ref().map_or(0, Vec::len) as f64);
            }
            _ => {}
        }
    }
    // Small requests that never answered count as failed.
    let unanswered = pending.values().filter(|p| !p.heavy).count() as u64;
    res.attempted += unanswered;
    res.failed += unanswered;
    res.elapsed_s = start.elapsed().as_secs_f64();
    Ok(res)
}

fn truncate(line: &str) -> &str {
    match line.char_indices().nth(300) {
        Some((i, _)) => &line[..i],
        None => line,
    }
}

//! Wire sessions: the `ne-serve` `FrontDoor` on a loopback port, driven
//! by one client thread per (tenant, service) pair in this process, with
//! plain frames. Every session's `ne-tenants/v1` and `ne-metrics/v2`
//! exports must byte-match `run_oracle` for the same scenario.

use std::time::{Duration, Instant};

use ne_crypto::sha256::Sha256;
use ne_serve::client::{greet, ClientConfig};
use ne_serve::oracle::run_oracle;
use ne_serve::{Frame, FrameKind, FrontDoor, Mode, ServeConfig, ServeOutcome, WireCompletion};

use crate::inputs::{Inputs, Pair};
use crate::layers::{Acc, Metrics, Row};
use crate::sim::SimPlane;
use crate::{Session, SessionTrace};

/// The scenario the front door and the oracle serve: the inputs'
/// tenants, each with the same service list, `requests` per pair.
fn serve_config(inputs: &Inputs) -> ServeConfig {
    ServeConfig::new(
        inputs.specs.len(),
        inputs.specs[0].services.len(),
        inputs.pairs[0].measured.len(),
        inputs.seed,
    )
}

/// Runs the in-process oracle for the scenario and times it.
///
/// # Errors
///
/// The oracle's own failures.
pub fn oracle(inputs: &Inputs) -> Result<(ServeOutcome, Duration), String> {
    let a = Instant::now();
    let outcome = run_oracle(&serve_config(inputs))?;
    Ok((outcome, a.elapsed()))
}

/// What one client connection saw.
struct ClientOut {
    started: Instant,
    greeted: Instant,
    finished: Instant,
    sent: u64,
    rejected: u64,
    rtt_us: Vec<f64>,
    replies: Vec<Vec<u8>>,
    send: Acc,
    wait: Acc,
    own: Acc,
}

fn wire_err(what: &str) -> impl Fn(ne_serve::ConnError) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// One pair's closed-loop client: greet, fire the provisioning frames,
/// then one request in flight until the stream ends, then Done/Finish.
fn client(
    cfg: &ClientConfig,
    pair: &Pair,
    warmup: Vec<Vec<u8>>,
    measured: Vec<Vec<u8>>,
    traced: bool,
) -> Result<ClientOut, String> {
    let started = Instant::now();
    let mut conn = greet(cfg, pair.tenant, pair.service).map_err(wire_err("greet"))?;
    let greeted = Instant::now();
    let (t, s) = (pair.tenant as u32, pair.service as u32);
    let mut out = ClientOut {
        started,
        greeted,
        finished: greeted,
        sent: 0,
        rejected: 0,
        rtt_us: Vec::with_capacity(measured.len()),
        replies: Vec::with_capacity(measured.len()),
        send: Acc::default(),
        wait: Acc::default(),
        own: Acc::default(),
    };
    let mut id = 0u64;
    let a = Instant::now();
    for payload in warmup {
        id += 1;
        conn.send(&Frame::new(FrameKind::Request, t, s, id, payload))
            .map_err(wire_err("send"))?;
    }
    if traced {
        out.send.add(a.elapsed());
    }
    for payload in measured {
        id += 1;
        let a = Instant::now();
        conn.send(&Frame::new(FrameKind::Request, t, s, id, payload))
            .map_err(wire_err("send"))?;
        out.sent += 1;
        let b = Instant::now();
        let frame = conn.recv().map_err(wire_err("recv"))?;
        let c = Instant::now();
        match frame.kind {
            FrameKind::Reply => {
                out.rtt_us.push((c - a).as_secs_f64() * 1e6);
                out.replies.push(frame.payload);
            }
            // Admission closed the pair: nothing more will be pulled.
            FrameKind::Reject => {
                out.rejected += 1;
                break;
            }
            other => return Err(format!("unexpected {other:?} frame mid-session")),
        }
        if traced {
            out.send.add(b - a);
            out.wait.add(c - b);
            out.own.add(c.elapsed());
        }
    }
    // Waiting for Finish is waiting on the server to serve the other
    // pairs' tails.
    let a = Instant::now();
    if out.rejected == 0 {
        conn.send(&Frame::new(FrameKind::Done, t, s, 0, Vec::new()))
            .map_err(wire_err("send"))?;
    }
    loop {
        let frame = conn.recv().map_err(wire_err("recv"))?;
        match frame.kind {
            FrameKind::Finish => break,
            FrameKind::Reject => out.rejected += 1,
            other => return Err(format!("unexpected {other:?} frame before Finish")),
        }
    }
    out.finished = Instant::now();
    if traced {
        out.wait.add(out.finished - a);
    }
    Ok(out)
}

/// Runs one wire session and checks it against the oracle's exports.
///
/// # Errors
///
/// Any socket, protocol or server failure, a failed reply check, or an
/// export that differs from the oracle's.
pub fn session(inputs: &Inputs, oracle: &ServeOutcome, traced: bool) -> Result<Session, String> {
    let cfg = serve_config(inputs);
    let staged: Vec<_> = inputs
        .pairs
        .iter()
        .map(|p| (p.warmup.clone(), p.measured.clone()))
        .collect();
    let t0 = Instant::now();
    let door = FrontDoor::bind(cfg.clone(), "127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let bind = t0.elapsed();
    let ccfg = ClientConfig {
        addr: door
            .local_addr()
            .map_err(|e| format!("local_addr: {e}"))?
            .to_string(),
        tenants: cfg.tenants,
        services: cfg.services,
        requests: cfg.requests,
        seed: cfg.seed,
        mode: Mode::Closed,
        tls: false,
        read_timeout: Duration::from_secs(30),
    };
    let (served, clients) = std::thread::scope(|scope| {
        let server = scope.spawn(move || {
            let a = Instant::now();
            let r = door.run();
            (r, a.elapsed())
        });
        let handles: Vec<_> = inputs
            .pairs
            .iter()
            .zip(staged)
            .map(|(pair, (warmup, measured))| {
                let ccfg = &ccfg;
                scope.spawn(move || client(ccfg, pair, warmup, measured, traced))
            })
            .collect();
        let clients: Vec<Result<ClientOut, String>> = handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect();
        let served = server
            .join()
            .unwrap_or_else(|_| (Err("front door panicked".into()), Duration::ZERO));
        (served, clients)
    });
    let (outcome, frontdoor) = served;
    let outcome = outcome?;
    let clients = clients.into_iter().collect::<Result<Vec<_>, _>>()?;
    // Setup ends when the last client is greeted.
    let last = clients
        .iter()
        .max_by_key(|c| c.greeted)
        .ok_or("no client connections")?;
    let ready = last.greeted;
    let done = clients.iter().map(|c| c.finished).max().unwrap_or(ready);
    if outcome.tenants_export != oracle.tenants_export {
        return Err("wire ne-tenants/v1 export differs from run_oracle".to_string());
    }
    if outcome.metrics_json != oracle.metrics_json {
        return Err("wire ne-metrics/v2 export differs from run_oracle".to_string());
    }
    let report = &outcome.report;
    if report.completed() + report.shed_requests() != report.accepted() {
        return Err("accepted request lost on the wire".to_string());
    }
    let mut fp = Sha256::new();
    fp.update(outcome.tenants_export.as_bytes());
    fp.update(outcome.metrics_json.as_bytes());
    let mut latencies = Vec::new();
    for (pair, c) in inputs.pairs.iter().zip(&clients) {
        for raw in &c.replies {
            let wc = WireCompletion::decode(raw)?;
            if !pair.factory.check_reply(&wc.reply) {
                return Err(format!(
                    "tenant {} {} reply {} fails check_reply",
                    pair.tenant,
                    pair.kind.name(),
                    wc.seq
                ));
            }
            latencies.push(wc.latency);
            fp.update(raw);
        }
    }
    let sim = SimPlane::from_export(
        &outcome.metrics_json,
        latencies,
        report.completed(),
        fp.finalize(),
    )?;
    // A traced session also times the oracle on the same warm process, so
    // the wire's overhead compares like with like.
    let oracle_time = if traced {
        let (again, d) = self::oracle(inputs)?;
        if again.tenants_export != oracle.tenants_export
            || again.metrics_json != oracle.metrics_json
        {
            return Err("run_oracle is not reproducible".to_string());
        }
        d
    } else {
        Duration::ZERO
    };
    let rtt_us: Vec<f64> = clients
        .iter()
        .flat_map(|c| c.rtt_us.iter().copied())
        .collect();
    let trace = traced.then(|| {
        // Client spans as a mean per connection.
        let n = clients.len() as f64;
        let per_conn = |name: &str, f: fn(&ClientOut) -> Acc| {
            let (calls, ns) = clients
                .iter()
                .map(f)
                .fold((0, 0), |(c, t), a| (c + a.calls, t + a.ns));
            Row {
                name: name.to_string(),
                calls: calls as f64 / n,
                ms: ns as f64 / 1e6 / n,
            }
        };
        let mut m = Metrics::default();
        m.set(
            "serve.rtt_us",
            rtt_us.iter().sum::<f64>() / rtt_us.len().max(1) as f64,
        );
        m.set("serve.frontdoor_ms", frontdoor.as_secs_f64() * 1e3);
        m.set("serve.oracle_ms", oracle_time.as_secs_f64() * 1e3);
        m.set(
            "serve.wire_overhead_ms",
            (frontdoor.as_secs_f64() - oracle_time.as_secs_f64()) * 1e3,
        );
        SessionTrace {
            setup: vec![
                Row::span("serve.bind", bind),
                Row::span("bench.client_spawn", last.started - t0 - bind),
                Row::span("serve.greet (waits on build)", last.greeted - last.started),
            ],
            serve: vec![
                per_conn("serve.client_send", |c| c.send),
                per_conn("serve.client_wait (server)", |c| c.wait),
                per_conn("bench.client", |c| c.own),
            ],
            metrics: m,
        }
    });
    Ok(Session {
        setup_s: (ready - t0).as_secs_f64(),
        serve_s: (done - ready).as_secs_f64(),
        req_host_us: rtt_us,
        offered: clients.iter().map(|c| c.sent).sum(),
        failed: clients.iter().map(|c| c.rejected).sum::<u64>() + report.shed_requests(),
        sim,
        trace,
    })
}

//! In-process sessions: a `HostServer` with the default `HostConfig`,
//! driven through its stable public calls (`build`, `submit`, `step`,
//! `drain`, `reset_measurement`) by the benchmark's own closed or open
//! loop.

use std::time::{Duration, Instant};

use ne_crypto::sha256::Sha256;
use ne_host::{Completion, HostConfig, HostServer};
use ne_obs::{Sampler, SamplerConfig, Timeline};

use crate::inputs::{kind_index, Inputs};
use crate::layers::{Acc, Metrics, Row};
use crate::replay;
use crate::sim::SimPlane;
use crate::{Session, SessionTrace};

/// Builds a server for `inputs` and serves the provisioning prefix:
/// build, attestation and warmup, up to the first measured request.
/// Returns the server and the build and warmup times.
///
/// # Errors
///
/// A failed build, a refused or failed provisioning request.
pub fn setup(inputs: &Inputs) -> Result<(HostServer, Duration, Duration), String> {
    let warm: Vec<Vec<Vec<u8>>> = inputs.pairs.iter().map(|p| p.warmup.clone()).collect();
    let t0 = Instant::now();
    let mut cfg = HostConfig::new(inputs.specs.clone());
    cfg.seed = inputs.seed;
    let mut server = HostServer::build(cfg).map_err(|e| format!("build: {e}"))?;
    let t1 = Instant::now();
    for (pair, payloads) in inputs.pairs.iter().zip(warm) {
        for payload in payloads {
            let now = server.now();
            if !server
                .submit(pair.tenant, pair.service, now, payload)
                .is_accepted()
            {
                return Err(format!("warmup request of tenant {} refused", pair.tenant));
            }
            server.step().map_err(|e| format!("warmup step: {e}"))?;
        }
    }
    server.drain().map_err(|e| format!("warmup drain: {e}"))?;
    server.reset_measurement();
    Ok((server, t1 - t0, t1.elapsed()))
}

/// Spans of the serving phase.
#[derive(Default)]
struct Spans {
    submit: Acc,
    step: [Acc; 3],
    idle: Acc,
    poll: Acc,
    own: Acc,
}

/// The serving loop's state: the server, the remaining payloads, and
/// what was measured so far.
struct Serve<'a> {
    inputs: &'a Inputs,
    server: HostServer,
    sampler: Option<Sampler>,
    traced: bool,
    payloads: Vec<std::vec::IntoIter<Vec<u8>>>,
    next: Vec<usize>,
    accepted: Vec<Vec<usize>>,
    host_us: Vec<f64>,
    offered: u64,
    rejected: u64,
    steps: u64,
    spans: Spans,
}

impl Serve<'_> {
    /// Offers pair `p`'s next payload at `arrival`, if it has one left.
    fn offer(&mut self, p: usize, arrival: u64) {
        let a = self.traced.then(Instant::now);
        let Some(payload) = self.payloads[p].next() else {
            return;
        };
        let k = self.next[p];
        self.next[p] += 1;
        self.offered += 1;
        let pair = &self.inputs.pairs[p];
        let b = self.traced.then(Instant::now);
        let admission = self
            .server
            .submit(pair.tenant, pair.service, arrival, payload);
        if let (Some(a), Some(b)) = (a, b) {
            self.spans.own.add(b - a);
            self.spans.submit.add(b.elapsed());
        }
        if admission.is_accepted() {
            self.accepted[p].push(k);
        } else {
            self.rejected += 1;
        }
    }

    /// Steps the server once (then polls the sampler, if any) and returns
    /// the completed request's pair and end time.
    fn step(&mut self) -> Result<Option<(usize, u64)>, String> {
        let a = Instant::now();
        let stepped = self.server.step().map_err(|e| format!("step: {e}"))?;
        let b = Instant::now();
        self.steps += 1;
        let done = stepped.map(|c| {
            let p = self.inputs.pair_of[c.tenant][c.service];
            self.host_us.push((b - a).as_secs_f64() * 1e6);
            if self.traced {
                self.spans.step[kind_index(self.inputs.pairs[p].kind)].add(b - a);
            }
            (p, c.end)
        });
        if self.traced {
            if done.is_none() {
                self.spans.idle.add(b - a);
            }
            let c = Instant::now();
            self.spans.own.add(c - b);
            if let Some(s) = &mut self.sampler {
                s.poll(&self.server);
                self.spans.poll.add(c.elapsed());
            }
        } else if let Some(s) = &mut self.sampler {
            s.poll(&self.server);
        }
        Ok(done)
    }
}

/// Runs one session: setup, the measured serving loop (closed when the
/// inputs carry no schedule, open otherwise), then the correctness checks
/// and, when `traced`, the layer spans and replays.
///
/// # Errors
///
/// Any failed check or call.
pub fn session(inputs: &Inputs, traced: bool, observe: bool) -> Result<Session, String> {
    let payloads = inputs
        .pairs
        .iter()
        .map(|p| p.measured.clone().into_iter())
        .collect();
    let t0 = Instant::now();
    let (server, build, warmup) = setup(inputs)?;
    let t1 = Instant::now();
    let sampler = observe.then(|| {
        Sampler::new(
            &server,
            (0..inputs.specs.len()).collect(),
            SamplerConfig::default(),
        )
    });
    let n = inputs.pairs.len();
    let mut sv = Serve {
        inputs,
        server,
        sampler,
        traced,
        payloads,
        next: vec![0; n],
        accepted: vec![Vec::new(); n],
        host_us: Vec::with_capacity(inputs.pairs.iter().map(|p| p.measured.len()).sum()),
        offered: 0,
        rejected: 0,
        steps: 0,
        spans: Spans::default(),
    };
    if inputs.schedule.is_empty() {
        for p in 0..n {
            sv.offer(p, 0);
        }
        while sv.server.pending() > 0 {
            if let Some((p, end)) = sv.step()? {
                sv.offer(p, end);
            }
        }
    } else {
        let sched = &inputs.schedule;
        let mut i = 0;
        while i < sched.len() || sv.server.pending() > 0 {
            while i < sched.len() && (sched[i].1 <= sv.server.now() || sv.server.pending() == 0) {
                sv.offer(sched[i].0, sched[i].1);
                i += 1;
            }
            if sv.server.pending() > 0 {
                sv.step()?;
            }
        }
    }
    let serve_s = t1.elapsed().as_secs_f64();
    let setup_s = (t1 - t0).as_secs_f64();
    finish(sv, setup_s, serve_s, build, warmup)
}

/// Number of sampler windows a timeline closed (retained plus rolled up).
fn windows(t: &Timeline) -> u64 {
    t.base.as_ref().map_or(0, |b| b.folded) + t.windows.iter().map(|w| w.folded).sum::<u64>()
}

/// End-of-session exports and checks, plus the trace when enabled.
fn finish(
    sv: Serve,
    setup_s: f64,
    serve_s: f64,
    build: Duration,
    warmup: Duration,
) -> Result<Session, String> {
    let Serve {
        inputs,
        server,
        sampler,
        traced,
        accepted,
        host_us,
        offered,
        rejected,
        steps,
        spans,
        ..
    } = sv;
    let a = Instant::now();
    let metrics = server.app.machine.metrics();
    let metrics_json = metrics.to_json();
    let export_metrics = a.elapsed();
    metrics
        .check()
        .map_err(|e| format!("metrics identities: {e}"))?;
    // Sampler::finish digests each rolling reply checkpoint from the start
    // of the stream, so its cost grows with the square of the replies per
    // pair; only traced sessions build the timeline, and
    // export.timeline_ms reports what it costs.
    let (windows_n, export_timeline) = match sampler {
        Some(s) if traced => {
            let a = Instant::now();
            let t = s.finish(&server);
            std::hint::black_box(ne_obs::to_jsonl(&t, "nebench"));
            (windows(&t), a.elapsed())
        }
        _ => (0, Duration::ZERO),
    };
    let report = server.report();
    if report.sched.invariant_violations > 0 {
        return Err("scheduler invariant violated".to_string());
    }
    if report.completed() + report.shed_requests() != report.accepted() {
        return Err(format!(
            "accepted request lost: {} completed + {} shed != {} accepted",
            report.completed(),
            report.shed_requests(),
            report.accepted()
        ));
    }
    let mut fp = Sha256::new();
    fp.update(metrics_json.as_bytes());
    let mut per_pair: Vec<Vec<&Completion>> = vec![Vec::new(); inputs.pairs.len()];
    for c in server.completions() {
        let p = inputs.pair_of[c.tenant][c.service];
        if !inputs.pairs[p].factory.check_reply(&c.reply) {
            return Err(format!(
                "tenant {} {} reply {} fails check_reply",
                c.tenant,
                inputs.pairs[p].kind.name(),
                c.seq
            ));
        }
        for word in [
            c.tenant as u64,
            c.service as u64,
            c.seq,
            c.reply.len() as u64,
        ] {
            fp.update(&word.to_le_bytes());
        }
        fp.update(&c.reply);
        per_pair[p].push(c);
    }
    let completed = server.completions().len() as u64;
    let sim = SimPlane::from_export(
        &metrics_json,
        server.completions().iter().map(|c| c.latency).collect(),
        completed,
        fp.finalize(),
    )?;
    let shed = report.shed_requests();
    let trace = if traced {
        let (models, train, sha) = replay::replay_build(&inputs.specs, inputs.seed);
        let bodies = replay::replay_bodies(&inputs.pairs, &accepted, &per_pair, &models)?;
        let (enc, dec) = replay::replay_codec(&inputs.pairs, &accepted, &per_pair)?;
        let mut m = Metrics::default();
        m.set("host.build_ms", build.as_secs_f64() * 1e3);
        m.set("host.warmup_ms", warmup.as_secs_f64() * 1e3);
        m.set("svm.train_ms", train.ms());
        m.set("crypto.sha256_ms", sha.ms());
        let mut serve_rows = vec![Row::of("host.submit", spans.submit)];
        for (i, (kind, body)) in [
            ("echo", "tls.record"),
            ("db", "db.query"),
            ("svm", "svm.predict"),
        ]
        .into_iter()
        .enumerate()
        {
            let (step, replayed) = (spans.step[i], bodies[i]);
            m.set(&format!("{body}_us"), replayed.mean_us());
            m.set(&format!("host.step_us.{kind}"), step.mean_us());
            m.set(
                &format!("sgx.step_other_us.{kind}"),
                step.mean_us() - replayed.mean_us(),
            );
            serve_rows.push(Row {
                name: format!("sgx.step_other.{kind}"),
                calls: step.calls as f64,
                ms: step.ms() - replayed.ms(),
            });
            serve_rows.push(Row::of(&format!("{body} (replayed)"), replayed));
        }
        serve_rows.push(Row::of("host.step_idle", spans.idle));
        serve_rows.push(Row::of("obs.poll", spans.poll));
        serve_rows.push(Row::of("bench.loop", spans.own));
        m.set("host.submit_us", spans.submit.mean_us());
        m.set("host.rejected_n", rejected as f64);
        m.set("host.shed_n", shed as f64);
        m.set("host.step_idle_n", spans.idle.calls as f64);
        m.set(
            "host.step_useful_ratio",
            completed as f64 / steps.max(1) as f64,
        );
        m.set("obs.poll_us", spans.poll.mean_us());
        m.set("obs.windows_n", windows_n as f64);
        m.set("serve.frame_encode_us", enc.mean_us());
        m.set("serve.frame_decode_us", dec.mean_us());
        m.set("export.metrics_json_ms", export_metrics.as_secs_f64() * 1e3);
        m.set("export.timeline_ms", export_timeline.as_secs_f64() * 1e3);
        let setup_rows = vec![
            Row {
                name: "sgx+core.build_other".to_string(),
                calls: 1.0,
                ms: build.as_secs_f64() * 1e3 - train.ms() - sha.ms(),
            },
            Row::of("svm.train (replayed)", train),
            Row::of("crypto.sha256 (replayed)", sha),
            Row::span("host.warmup", warmup),
        ];
        Some(SessionTrace {
            setup: setup_rows,
            serve: serve_rows,
            metrics: m,
        })
    } else {
        None
    };
    Ok(Session {
        setup_s,
        serve_s,
        req_host_us: host_us,
        offered,
        failed: rejected + shed,
        sim,
        trace,
    })
}

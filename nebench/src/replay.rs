//! Layer replays: the work the server does inside one opaque call,
//! re-run from outside through the libraries' public functions on the
//! run's own inputs and timed on its own. The server's build, and each
//! service body inside `HostServer::step`, cannot be split from outside
//! without spans in the program; a replay gives the layer's cost, and the
//! caller's remainder (`step - replay`) is the stepping around it.
//!
//! Every served reply is also compared with its replay, so a replay that
//! drifted from what the service runs fails the run instead of timing the
//! wrong work.

use std::time::Instant;

use ne_core::loader::EnclaveImage;
use ne_core::Edl;
use ne_db::Database;
use ne_host::service::{service_enclave_name, service_image, tenant_key, SVM_CLASSES, SVM_DIM};
use ne_host::{Completion, ServiceKind, TenantSpec};
use ne_serve::{Decoder, Frame, FrameKind, WireCompletion};
use ne_sgx::VirtAddr;
use ne_svm::{train, Dataset, SvmModel, TrainParams};
use ne_tls::record::{ContentType, RecordLayer};

use crate::inputs::{kind_index, Pair};
use crate::layers::Acc;

/// Samples per class in each tenant's provisioning dataset (as the host
/// provisions it at build time).
const SVM_PER_CLASS: usize = 30;

/// Trains tenant `tenant`'s SVM exactly as the host provisions it at
/// build time.
pub fn svm_model(tenant: usize, seed: u64) -> SvmModel {
    let ds = Dataset::synthetic(
        SVM_CLASSES,
        SVM_PER_CLASS,
        SVM_DIM,
        seed ^ (tenant as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
    );
    train(
        &ds,
        &TrainParams {
            seed: seed.wrapping_add(tenant as u64),
            ..Default::default()
        },
    )
}

/// Build-time replays: every SVM the build trains, and the measurement
/// digests of every image it loads. Returns the trained models by tenant
/// (for the predict replay) and the two accumulators.
pub fn replay_build(specs: &[TenantSpec], seed: u64) -> (Vec<Option<SvmModel>>, Acc, Acc) {
    let mut train_acc = Acc::default();
    let mut sha_acc = Acc::default();
    let mut models = Vec::new();
    for (t, spec) in specs.iter().enumerate() {
        let model = spec.services.contains(&ServiceKind::SvmInfer).then(|| {
            let a = Instant::now();
            let m = svm_model(t, seed);
            train_acc.add(a.elapsed());
            m
        });
        models.push(model);
        let mut images = vec![EnclaveImage::new(&spec.gate_name(), b"host-gateway")
            .code_pages(8)
            .heap_pages(4)
            .edl(Edl::new().ecall("dispatch").ocall("net_reply"))];
        images.extend(
            spec.services
                .iter()
                .map(|&k| service_image(&service_enclave_name(&spec.name, k), k)),
        );
        // The loader replays each image's measurement for its SIGSTRUCT,
        // and the machine digests the same pages again as it EEXTENDs.
        for image in &images {
            let a = Instant::now();
            for _ in 0..2 {
                std::hint::black_box(image.expected_mrenclave(VirtAddr(0)));
            }
            sha_acc.add(a.elapsed());
        }
    }
    (models, train_acc, sha_acc)
}

/// Replays every service body of one session (echo open+seal, SQL
/// parse+execute+render, SVM decode+predict) in each pair's order and
/// checks each result against the served reply. Returns one accumulator
/// per [`ServiceKind`] (in `ServiceKind::ALL` order).
///
/// # Errors
///
/// A replay that disagrees with the served reply, or a failing call.
pub fn replay_bodies(
    pairs: &[Pair],
    accepted: &[Vec<usize>],
    per_pair: &[Vec<&Completion>],
    models: &[Option<SvmModel>],
) -> Result<[Acc; 3], String> {
    let mut accs = [Acc::default(); 3];
    for (p, pair) in pairs.iter().enumerate() {
        let acc = &mut accs[kind_index(pair.kind)];
        let mut db = Database::new();
        if pair.kind == ServiceKind::Db {
            for sql in &pair.warmup {
                db.execute(std::str::from_utf8(sql).map_err(|e| e.to_string())?)
                    .map_err(|e| format!("db replay setup: {e}"))?;
            }
        }
        for (&k, c) in accepted[p].iter().zip(&per_pair[p]) {
            let payload = &pair.measured[k];
            let a = Instant::now();
            let reply = match pair.kind {
                ServiceKind::TlsEcho => {
                    let key = tenant_key(pair.tenant);
                    let (_, body) = RecordLayer::new(key)
                        .open(payload)
                        .map_err(|e| format!("echo replay: {e}"))?;
                    RecordLayer::new(key).seal(ContentType::Data, &body)
                }
                ServiceKind::Db => {
                    let sql = std::str::from_utf8(payload).map_err(|e| e.to_string())?;
                    ne_db::parse(sql).map_err(|e| format!("db replay: {e}"))?;
                    let result = db.execute(sql).map_err(|e| format!("db replay: {e}"))?;
                    let mut out = Vec::new();
                    for row in &result.rows {
                        for v in row {
                            out.extend_from_slice(v.to_string().as_bytes());
                        }
                    }
                    out
                }
                ServiceKind::SvmInfer => {
                    let model = models[pair.tenant]
                        .as_ref()
                        .ok_or("svm replay without a model")?;
                    let x: Vec<f64> = payload
                        .chunks_exact(8)
                        .map(|c| f64::from_le_bytes(c.try_into().unwrap_or([0; 8])))
                        .collect();
                    vec![model.predict(&x) as u8]
                }
            };
            acc.add(a.elapsed());
            if reply != c.reply {
                return Err(format!(
                    "{} replay of tenant {} request {k} differs from the served reply",
                    pair.kind.name(),
                    pair.tenant
                ));
            }
        }
    }
    Ok(accs)
}

/// Replays the wire codec on one session's traffic: every request and
/// reply framed as the front door would frame it, encoded, then decoded
/// back. Returns the encode and decode accumulators (one call per frame).
///
/// # Errors
///
/// A frame that does not decode to itself.
pub fn replay_codec(
    pairs: &[Pair],
    accepted: &[Vec<usize>],
    per_pair: &[Vec<&Completion>],
) -> Result<(Acc, Acc), String> {
    let mut enc = Acc::default();
    let mut dec = Acc::default();
    for (p, pair) in pairs.iter().enumerate() {
        for (&k, c) in accepted[p].iter().zip(&per_pair[p]) {
            let (t, s) = (pair.tenant as u32, pair.service as u32);
            for frame in [
                Frame::new(FrameKind::Request, t, s, k as u64, pair.measured[k].clone()),
                Frame::new(
                    FrameKind::Reply,
                    t,
                    s,
                    k as u64,
                    WireCompletion::from_completion(c).encode(),
                ),
            ] {
                let a = Instant::now();
                let bytes = frame.encode();
                enc.add(a.elapsed());
                let a = Instant::now();
                let mut d = Decoder::new();
                d.feed(&bytes).map_err(|e| format!("codec replay: {e}"))?;
                let back = d.next_frame().map_err(|e| format!("codec replay: {e}"))?;
                dec.add(a.elapsed());
                if back.as_ref() != Some(&frame) {
                    return Err("codec replay: frame did not round-trip".to_string());
                }
            }
        }
    }
    Ok((enc, dec))
}

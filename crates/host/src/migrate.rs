//! Live tenant migration: the five-phase sealed-state machine.
//!
//! A tenant moves between hosts as `Quiesce → Seal → Remove` on the
//! source ([`HostServer::extract_tenant`]) and `Rebuild → Resume` on the
//! target ([`HostServer::adopt_tenant`]):
//!
//! 1. **Quiesce** — admission for the tenant is already closed by the
//!    caller; queued requests are parked into the snapshot's bounded
//!    buffer ([`crate::recovery::RecoveryPolicy::migrate_park_capacity`]).
//!    Overflow beyond the buffer is shed *explicitly* with
//!    [`ShedReason::Migrating`] — counted in `shed_requests` like every
//!    other loss path, never dropped silently.
//! 2. **Seal** — each service enclave seals its session state into a
//!    versioned, MACed, counter-stamped blob (`ne-core` lifecycle
//!    format) via its `seal` ecall. The seal key is derived inside the
//!    enclave (EGETKEY, seal-to-enclave policy), so the host carries the
//!    blob but cannot read or forge it.
//! 3. **Remove** — the tenant's enclaves are torn down (EREMOVE), their
//!    EPC pages freed. The source slot becomes a dead stub: admission
//!    closed, counters zeroed (they travel inside the snapshot — leaving
//!    them behind would double-count on a same-host round trip).
//! 4. **Rebuild** — the target rebuilds the gate and service enclaves
//!    from the same images and re-associates them (NASSO), retrying with
//!    deterministic backoff on transient faults, then re-proves the full
//!    NEREPORT chain before any state or traffic lands: no verified
//!    chain, no adoption.
//! 5. **Resume** — each sealed blob is handed back through the service's
//!    `restore` ecall with the snapshot's counter as the freshness
//!    floor. A replayed stale blob is refused as the typed
//!    [`HostError::StateRollback`] (the same stance `ne-tls` takes on
//!    version/cipher rollback offers); any other refusal is
//!    [`HostError::SealedState`]. On success the parked requests are
//!    re-queued and admission reopens.
//!
//! Every phase runs against a cycle deadline
//! ([`crate::recovery::RecoveryPolicy::migrate_phase_deadline`]); a
//! phase that overruns fails the migration with a typed stall. A failed
//! extraction leaves the source tenant serving (its parked queue is
//! restored); a failed adoption tears the half-built enclaves down and
//! leaves the target clean, so the caller can roll the snapshot back to
//! the source with [`HostServer::rollback_tenant`].
//!
//! The invariant the whole machine exists for: **zero accepted requests
//! dropped**. Requests either complete (possibly on the new host), or
//! terminate as explicit sheds — `accepted == completed + shed_requests`
//! holds through any interleaving of migration and chaos.

use ne_core::lifecycle::AttestError;
use ne_sgx::error::SgxError;

use crate::error::{HostError, HostResult};
use crate::recovery::{backoff_cycles, MigratePhase, RecoveryEventKind, RecoveryState, ShedReason};
use crate::server::{tenant_epc_pages, HostServer};
use crate::service::{
    decode_restore_reply, encode_restore_args, encode_seal_args, service_enclave_name,
    RestoreOutcome, ServiceKind,
};
use crate::tenant::{Completion, Request, TenantSpec, TenantState};

/// Everything one tenant is, portable across hosts: the tenant's record
/// minus its queue, plus the parked requests, sealed per-service state
/// and completion records. Produced by [`HostServer::extract_tenant`],
/// consumed by [`HostServer::adopt_tenant`] /
/// [`HostServer::rollback_tenant`].
///
/// The snapshot is plain data — the sealed blobs inside it are opaque to
/// the host (MACed under keys derived inside the enclaves), so carrying
/// a snapshot across the wire leaks nothing and forging one is caught at
/// restore.
#[derive(Debug, Clone)]
pub struct TenantSnapshot {
    /// The tenant's record with an empty queue: traffic counters (quiesce
    /// overflow sheds included), sequence numbers, shed flag (carried, so
    /// a pressure-shed tenant does not silently un-shed by migrating),
    /// respawn history and attestation-refusal counts. Its spec carries
    /// the pinned seeding identity ([`TenantSpec::seed_index`]), which is
    /// what lets the rebuilt enclaves on the target derive the same seal
    /// key and accept the blobs.
    pub state: TenantState,
    /// Requests that were queued at quiesce, parked for the target to
    /// re-queue at resume. Bounded by
    /// [`crate::recovery::RecoveryPolicy::migrate_park_capacity`].
    pub parked: Vec<Request>,
    /// One sealed blob per service, in spec order.
    pub sealed: Vec<(ServiceKind, Vec<u8>)>,
    /// The monotonic counter the blobs were stamped with — the freshness
    /// floor the restore enforces.
    pub seal_counter: u64,
    /// The tenant's completion records (copied, with source-local tenant
    /// indices), so per-tenant reply digests stay whole across the move.
    pub completions: Vec<Completion>,
}

impl HostServer {
    /// Fails the migration when `phase` has overrun its cycle budget.
    fn phase_guard(&self, tenant: &str, phase: MigratePhase, start: u64) -> HostResult<()> {
        let budget = self.policy.migrate_phase_deadline;
        let elapsed = self.now().saturating_sub(start);
        if budget > 0 && elapsed > budget {
            return Err(HostError::Sgx(SgxError::Stalled(format!(
                "migration {} phase for tenant {tenant} overran its deadline: \
                 {elapsed} > {budget} cycles",
                phase.name()
            ))));
        }
        Ok(())
    }

    /// Seals every service enclave's state at `counter`, in spec order.
    fn seal_services(
        &mut self,
        spec: &TenantSpec,
        tenant: usize,
        counter: u64,
    ) -> HostResult<Vec<(ServiceKind, Vec<u8>)>> {
        let core = self.idle_core("seal")?;
        let identity = spec.identity(tenant) as u64;
        let args = encode_seal_args(identity, counter);
        spec.services
            .iter()
            .map(|&kind| {
                let name = service_enclave_name(&spec.name, kind);
                let blob = self.app.ecall(core, &name, "seal", &args)?;
                Ok((kind, blob))
            })
            .collect()
    }

    /// Extracts `tenant` for migration: quiesces its queue into the
    /// snapshot's bounded park buffer (overflow shed explicitly with
    /// [`ShedReason::Migrating`]), seals every service's state, tears the
    /// enclaves down (EREMOVE), and freezes the slot as a dead stub.
    ///
    /// On error the tenant is left serving at the source with its queue
    /// restored — a failed extraction never half-kills a tenant.
    ///
    /// # Errors
    ///
    /// [`HostError::BadRequest`] for an unknown, unloaded, or
    /// breaker-open tenant; a seal fault or phase-deadline overrun as
    /// [`HostError::Sgx`].
    pub fn extract_tenant(&mut self, tenant: usize) -> HostResult<TenantSnapshot> {
        if tenant >= self.tenants.len() || !self.tenants[tenant].loaded {
            return Err(HostError::BadRequest(format!(
                "no loaded tenant at index {tenant}"
            )));
        }
        if self.tenants[tenant].recovery.breaker_open {
            return Err(HostError::BadRequest(format!(
                "tenant {tenant} has an open breaker; migration needs healthy enclaves"
            )));
        }
        let mut spec = self.tenants[tenant].spec.clone();
        // Pin the seeding identity into the snapshot: the adopting host
        // assigns a fresh local index, and the rebuilt enclaves must
        // derive the *original* identity's seal key or the blobs will
        // never authenticate.
        spec.seed_index = Some(spec.identity(tenant));

        // Quiesce: park the queue, bounded; overflow terminates as
        // explicit sheds (the requests were accepted — they must be
        // accounted, never dropped).
        let quiesce_start = self.now();
        self.log_event_at(
            quiesce_start,
            tenant,
            RecoveryEventKind::Migrate(MigratePhase::Quiesce),
        );
        let cap = self.policy.migrate_park_capacity;
        let mut parked: Vec<Request> = self.tenants[tenant].queue.drain(..).collect();
        let overflow = parked.split_off(parked.len().min(cap));
        if !overflow.is_empty() {
            self.tenants[tenant].shed_requests += overflow.len() as u64;
            let now = self.now();
            self.log_event_at(now, tenant, RecoveryEventKind::Shed(ShedReason::Migrating));
        }
        if let Err(e) = self.phase_guard(&spec.name, MigratePhase::Quiesce, quiesce_start) {
            self.tenants[tenant].queue = parked.into_iter().collect();
            return Err(e);
        }

        // Seal: counter-stamp this migration's blobs one past the last
        // seal, so a replay of any earlier extraction is refused at
        // restore.
        let seal_start = self.now();
        self.log_event_at(
            seal_start,
            tenant,
            RecoveryEventKind::Migrate(MigratePhase::Seal),
        );
        let counter = self.tenants[tenant].seal_counter + 1;
        let sealed = match self.seal_services(&spec, tenant, counter) {
            Ok(sealed) => sealed,
            Err(e) => {
                // Un-quiesce: the tenant keeps serving at the source.
                self.tenants[tenant].queue = parked.into_iter().collect();
                return Err(e);
            }
        };
        if let Err(e) = self.phase_guard(&spec.name, MigratePhase::Seal, seal_start) {
            self.tenants[tenant].queue = parked.into_iter().collect();
            return Err(e);
        }
        self.tenants[tenant].seal_counter = counter;

        // Remove: EREMOVE services first, gate last; EPC pages free here.
        let remove_start = self.now();
        self.log_event_at(
            remove_start,
            tenant,
            RecoveryEventKind::Migrate(MigratePhase::Remove),
        );
        for name in spec.enclave_names().iter().rev() {
            self.app.unload(name)?;
        }

        let completions: Vec<Completion> = self
            .completions
            .iter()
            .filter(|c| c.tenant == tenant)
            .cloned()
            .collect();
        // Take the record out and leave a dead stub that rejects at the
        // front door and contributes nothing to reports (the counters
        // travel inside the snapshot; leaving them here would
        // double-count after a same-host round trip).
        let stub = TenantState::new(self.tenants[tenant].spec.clone(), false);
        let mut state = std::mem::replace(&mut self.tenants[tenant], stub);
        state.spec = spec;
        Ok(TenantSnapshot {
            state,
            parked,
            sealed,
            seal_counter: counter,
            completions,
        })
    }

    /// Adopts an extracted tenant on this host: rebuilds its enclaves
    /// (with retry/backoff), re-proves the NEREPORT chain, restores the
    /// sealed state, re-queues the parked requests, and reopens
    /// admission. Returns the tenant's **local index** on this host.
    ///
    /// `floor` is the caller's authoritative freshness floor — the
    /// highest seal counter it has ever seen for this tenant (the
    /// cluster's migration coordinator keeps one per global tenant). A
    /// replayed old snapshot is internally consistent (its blobs match
    /// its own counter), so only an external floor can catch it: the
    /// restore enforces `max(floor, snapshot counter)`. Pass 0 when no
    /// history exists.
    ///
    /// Adoption requires EPC headroom above the admission low-water mark
    /// — a migration must not immediately push the target into pressure
    /// shedding.
    ///
    /// # Errors
    ///
    /// On any error the target is left clean (half-built enclaves torn
    /// down) and the snapshot is untouched, so the caller can
    /// [`HostServer::rollback_tenant`] it to the source. Stale blobs are
    /// refused as [`HostError::StateRollback`]; other blob refusals as
    /// [`HostError::SealedState`].
    pub fn adopt_tenant(&mut self, snap: &TenantSnapshot, floor: u64) -> HostResult<usize> {
        self.adopt_inner(snap, floor, false)
    }

    /// Re-adopts a snapshot on the host that extracted it, after a failed
    /// adoption elsewhere — the `Rollback` arm of the migration machine.
    /// Identical to [`HostServer::adopt_tenant`] except the phase is
    /// logged as [`MigratePhase::Rollback`] and the EPC check skips the
    /// low-water headroom (the pages were this tenant's to begin with).
    ///
    /// # Errors
    ///
    /// As [`HostServer::adopt_tenant`].
    pub fn rollback_tenant(&mut self, snap: &TenantSnapshot, floor: u64) -> HostResult<usize> {
        self.adopt_inner(snap, floor, true)
    }

    fn adopt_inner(
        &mut self,
        snap: &TenantSnapshot,
        floor: u64,
        rollback: bool,
    ) -> HostResult<usize> {
        let spec = &snap.state.spec;
        if self.app.eid(&spec.gate_name()).is_ok() {
            return Err(HostError::BadRequest(format!(
                "enclaves named for tenant {} already exist on this host",
                spec.name
            )));
        }
        let need = tenant_epc_pages(spec);
        let headroom = if rollback {
            0
        } else {
            self.admission.epc_low_water
        };
        if (self.app.machine.free_epc_pages() as u64) < need + headroom {
            return Err(HostError::Sgx(SgxError::EpcFull));
        }

        let local = self.tenants.len();
        let phase = if rollback {
            MigratePhase::Rollback
        } else {
            MigratePhase::Rebuild
        };
        let rebuild_start = self.now();
        self.log_event_at(rebuild_start, local, RecoveryEventKind::Migrate(phase));

        // Rebuild + NASSO, retried with deterministic backoff on
        // transient faults (chaos can land on the very loads that are
        // supposed to receive the migrated state).
        let mut attempt: u32 = 0;
        while let Err(source) = self.load_tenant(spec, local) {
            attempt += 1;
            if attempt >= self.policy.max_attempts {
                return Err(HostError::Respawn {
                    tenant: spec.name.clone(),
                    source,
                });
            }
            let wait = backoff_cycles(&self.policy, self.seed, local, snap.seal_counter, attempt);
            let now = self.now();
            self.log_event_at(now, local, RecoveryEventKind::Backoff { wait });
            if let Ok(core) = self.idle_core("backoff") {
                self.app.untrusted(core, |cx| cx.charge(wait));
            }
        }

        // Attest + restore; any failure from here tears the rebuilt
        // enclaves down so the target stays clean for a rollback.
        let min_counter = floor.max(snap.seal_counter);
        let finished = self
            .phase_guard(&spec.name, phase, rebuild_start)
            .and_then(|()| self.finish_adoption(snap, min_counter, local));
        if let Err(e) = finished {
            self.teardown_enclaves(spec);
            return Err(e);
        }

        // Commit: the tenant exists on this host from here on, with a
        // fresh respawn window, a closed breaker and a proven chain.
        let mut ts = snap.state.clone();
        ts.loaded = true;
        ts.queue = snap
            .parked
            .iter()
            .cloned()
            .map(|r| Request { tenant: local, ..r })
            .collect();
        ts.recovery = RecoveryState {
            respawns: ts.recovery.respawns,
            ..RecoveryState::default()
        };
        ts.breaker_logged = false;
        ts.attested = true;
        ts.attest_epoch = 1;
        ts.seal_counter = snap.seal_counter;
        self.tenants.push(ts);
        self.sched.add_tenant(local);
        let carried = snap.completions.iter().cloned();
        self.completions
            .extend(carried.map(|c| Completion { tenant: local, ..c }));
        Ok(local)
    }

    /// The attest-and-restore tail of an adoption, separated so every
    /// error path funnels through one teardown in the caller.
    fn finish_adoption(
        &mut self,
        snap: &TenantSnapshot,
        min_counter: u64,
        local: usize,
    ) -> HostResult<()> {
        let spec = &snap.state.spec;
        let identity = spec.identity(local) as u64;

        // NEREPORT-gated adoption: the rebuilt chain must prove itself
        // before any sealed state (or later, traffic) lands. The epoch's
        // top bit keeps adoption nonces disjoint from the per-slot
        // attestation epochs.
        let core = self.idle_core("attestation")?;
        let epoch = (1 << 63) | snap.seal_counter;
        if let Err(e) = self.attest_services(core, spec, identity, epoch) {
            return Err(match e {
                AttestError::Sgx(source) => HostError::Sgx(source),
                refusal => HostError::SealedState {
                    tenant: spec.name.clone(),
                    reason: format!("attestation refused: {refusal}"),
                },
            });
        }

        // Resume: hand each blob back through the service's restore
        // ecall. Refusals come back as typed reply bytes (the enclave
        // rejecting input, not faulting), so the host can distinguish a
        // replay from a forgery without string-matching.
        let resume_start = self.now();
        self.log_event_at(
            resume_start,
            local,
            RecoveryEventKind::Migrate(MigratePhase::Resume),
        );
        for (kind, blob) in &snap.sealed {
            let name = service_enclave_name(&spec.name, *kind);
            let args = encode_restore_args(identity, min_counter, blob);
            let core = self.idle_core("restore")?;
            let reply = self.app.ecall(core, &name, "restore", &args)?;
            match decode_restore_reply(&reply) {
                Some(RestoreOutcome::Ok { .. }) => {}
                Some(RestoreOutcome::Rollback {
                    presented,
                    expected,
                }) => {
                    return Err(HostError::StateRollback {
                        tenant: spec.name.clone(),
                        presented,
                        expected,
                    });
                }
                Some(RestoreOutcome::BadMac) => {
                    return Err(HostError::SealedState {
                        tenant: spec.name.clone(),
                        reason: "sealed blob failed authentication".into(),
                    });
                }
                Some(RestoreOutcome::Malformed) => {
                    return Err(HostError::SealedState {
                        tenant: spec.name.clone(),
                        reason: "sealed blob malformed".into(),
                    });
                }
                Some(RestoreOutcome::BadPayload) => {
                    return Err(HostError::SealedState {
                        tenant: spec.name.clone(),
                        reason: "authenticated payload rejected by the service".into(),
                    });
                }
                None => {
                    return Err(HostError::Internal(format!(
                        "unintelligible restore reply from {name}"
                    )));
                }
            }
        }
        self.phase_guard(&spec.name, MigratePhase::Resume, resume_start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::Admission;
    use crate::server::HostConfig;
    use crate::service::RequestFactory;
    use ne_sgx::fault::FaultPlan;

    fn specs(n: usize, services: &[ServiceKind]) -> Vec<TenantSpec> {
        (0..n)
            .map(|i| TenantSpec::new(&format!("t{i}"), (n - i) as u8, services.to_vec()))
            .collect()
    }

    /// Submits `per_tenant` requests to each (tenant slot, factory) pair
    /// and drains; the factories persist across calls (and migrations),
    /// like the cluster's do.
    fn run_segment(
        server: &mut HostServer,
        slots: &[usize],
        factories: &mut [RequestFactory],
        per_tenant: usize,
    ) -> u64 {
        let mut accepted = 0;
        for _ in 0..per_tenant {
            for (&slot, f) in slots.iter().zip(factories.iter_mut()) {
                if server.submit(slot, 0, 0, f.next_request()).is_accepted() {
                    accepted += 1;
                }
            }
        }
        server.drain().unwrap();
        accepted
    }

    fn replies_for(server: &HostServer, slot: usize) -> Vec<(usize, u64, Vec<u8>)> {
        let mut rows: Vec<(usize, u64, Vec<u8>)> = server
            .completions()
            .iter()
            .filter(|c| c.tenant == slot)
            .map(|c| (c.service, c.seq, c.reply.clone()))
            .collect();
        rows.sort();
        rows
    }

    #[test]
    fn round_trip_preserves_state_and_reply_bytes() {
        // Migrated run: serve, extract tenant 0, adopt it back (new local
        // slot), serve more through the rebuilt+restored enclaves.
        let mut server = HostServer::build(HostConfig::new(specs(2, &[ServiceKind::Db]))).unwrap();
        let mut factories = vec![
            RequestFactory::new(ServiceKind::Db, 0, 42),
            RequestFactory::new(ServiceKind::Db, 1, 42),
        ];
        let a1 = run_segment(&mut server, &[0, 1], &mut factories, 4);
        assert_eq!(a1, 8);

        let snap = server.extract_tenant(0).unwrap();
        assert_eq!(snap.seal_counter, 1);
        assert_eq!(snap.state.completed, 4);
        assert!(!server.tenants()[0].loaded, "source slot is a dead stub");
        assert_eq!(server.tenants()[0].accepted, 0, "counters travel, not stay");

        let local = server.adopt_tenant(&snap, snap.seal_counter).unwrap();
        assert_eq!(local, 2);
        assert!(
            server.tenants()[local].attested,
            "adoption re-proved the chain"
        );
        let a2 = run_segment(&mut server, &[local, 1], &mut factories, 4);
        assert_eq!(a2, 8);
        let migrated = replies_for(&server, local);
        assert_eq!(migrated.len(), 8, "old completions carried + new ones");

        // Control run: identical workload, no migration.
        let mut control = HostServer::build(HostConfig::new(specs(2, &[ServiceKind::Db]))).unwrap();
        let mut cf = vec![
            RequestFactory::new(ServiceKind::Db, 0, 42),
            RequestFactory::new(ServiceKind::Db, 1, 42),
        ];
        run_segment(&mut control, &[0, 1], &mut cf, 4);
        run_segment(&mut control, &[0, 1], &mut cf, 4);
        assert_eq!(
            migrated,
            replies_for(&control, 0),
            "per-request reply bytes are migration-invariant"
        );

        // The five phases all hit the event log, in order.
        let phases: Vec<&str> = server
            .recovery_events()
            .iter()
            .filter_map(|e| match e.kind {
                RecoveryEventKind::Migrate(p) => Some(p.name()),
                _ => None,
            })
            .collect();
        assert_eq!(phases, ["quiesce", "seal", "remove", "rebuild", "resume"]);
    }

    #[test]
    fn parked_requests_drain_after_adoption_with_zero_drops() {
        let mut server =
            HostServer::build(HostConfig::new(specs(1, &[ServiceKind::TlsEcho]))).unwrap();
        let mut f = RequestFactory::new(ServiceKind::TlsEcho, 0, 7);
        for _ in 0..5 {
            assert!(server.submit(0, 0, 0, f.next_request()).is_accepted());
        }
        // Mid-migration: the queue is parked into the snapshot, not lost.
        let snap = server.extract_tenant(0).unwrap();
        assert_eq!(snap.parked.len(), 5);
        assert_eq!(snap.state.accepted, 5);
        assert_eq!(snap.state.completed, 0);
        let local = server.adopt_tenant(&snap, snap.seal_counter).unwrap();
        assert_eq!(server.pending(), 5, "parked requests re-queued at resume");
        server.drain().unwrap();
        let t = &server.tenants()[local];
        assert_eq!(t.accepted, t.completed + t.shed_requests, "reply-or-shed");
        assert_eq!((t.completed, t.shed_requests), (5, 0), "zero drops");
    }

    #[test]
    fn park_overflow_is_shed_explicitly_never_dropped() {
        let mut cfg = HostConfig::new(specs(1, &[ServiceKind::TlsEcho]));
        cfg.recovery.migrate_park_capacity = 2;
        let mut server = HostServer::build(cfg).unwrap();
        let mut f = RequestFactory::new(ServiceKind::TlsEcho, 0, 7);
        for _ in 0..5 {
            assert!(server.submit(0, 0, 0, f.next_request()).is_accepted());
        }
        let snap = server.extract_tenant(0).unwrap();
        assert_eq!(snap.parked.len(), 2, "bounded park buffer");
        assert_eq!(snap.state.shed_requests, 3, "overflow shed, counted");
        assert!(
            server
                .recovery_events()
                .iter()
                .any(|e| e.kind == RecoveryEventKind::Shed(ShedReason::Migrating)),
            "overflow shed carries the Migrating reason"
        );
        let local = server.adopt_tenant(&snap, snap.seal_counter).unwrap();
        server.drain().unwrap();
        let t = &server.tenants()[local];
        assert_eq!(t.accepted, t.completed + t.shed_requests, "reply-or-shed");
        assert_eq!((t.completed, t.shed_requests), (2, 3));
    }

    #[test]
    fn stale_snapshot_replay_is_refused_with_typed_rollback() {
        let mut server = HostServer::build(HostConfig::new(specs(1, &[ServiceKind::Db]))).unwrap();
        let mut factories = vec![RequestFactory::new(ServiceKind::Db, 0, 42)];
        run_segment(&mut server, &[0], &mut factories, 2);
        let stale = server.extract_tenant(0).unwrap();
        let local = server.adopt_tenant(&stale, stale.seal_counter).unwrap();
        run_segment(&mut server, &[local], &mut factories, 2);
        let fresh = server.extract_tenant(local).unwrap();
        assert_eq!((stale.seal_counter, fresh.seal_counter), (1, 2));

        // Replaying the internally-consistent stale snapshot against the
        // coordinator's floor is refused with the typed rollback error —
        // the ne-tls stance: refuse, never downgrade.
        let err = server.adopt_tenant(&stale, fresh.seal_counter).unwrap_err();
        assert_eq!(
            err,
            HostError::StateRollback {
                tenant: "t0".into(),
                presented: 1,
                expected: 2,
            }
        );
        // The refusal left the host clean: the fresh snapshot still lands.
        let local = server.adopt_tenant(&fresh, fresh.seal_counter).unwrap();
        run_segment(&mut server, &[local], &mut factories, 2);
        let t = &server.tenants()[local];
        assert_eq!(t.accepted, t.completed + t.shed_requests, "reply-or-shed");
    }

    #[test]
    fn failed_adoption_rolls_back_to_source() {
        // Target with no EPC headroom refuses the adoption; the snapshot
        // then rolls back onto the source, which skips the low-water
        // headroom (the pages were the tenant's to begin with).
        let mut server =
            HostServer::build(HostConfig::new(specs(1, &[ServiceKind::TlsEcho]))).unwrap();
        let mut f = RequestFactory::new(ServiceKind::TlsEcho, 0, 7);
        for _ in 0..3 {
            assert!(server.submit(0, 0, 0, f.next_request()).is_accepted());
        }
        let snap = server.extract_tenant(0).unwrap();
        let free = server.app.machine.free_epc_pages() as u64;
        server.admission.epc_low_water = free; // adoption headroom now unmeetable
        assert_eq!(
            server.adopt_tenant(&snap, snap.seal_counter).unwrap_err(),
            HostError::Sgx(SgxError::EpcFull)
        );
        let local = server.rollback_tenant(&snap, snap.seal_counter).unwrap();
        let phases: Vec<&str> = server
            .recovery_events()
            .iter()
            .filter_map(|e| match e.kind {
                RecoveryEventKind::Migrate(p) => Some(p.name()),
                _ => None,
            })
            .collect();
        assert!(phases.contains(&"rollback"), "rollback phase logged");
        server.drain().unwrap();
        let t = &server.tenants()[local];
        assert_eq!((t.completed, t.shed_requests), (3, 0), "zero drops");
    }

    #[test]
    fn unattested_tenant_is_refused_admission() {
        let mut server =
            HostServer::build(HostConfig::new(specs(1, &[ServiceKind::TlsEcho]))).unwrap();
        assert!(server.tenants()[0].attested, "build attests loaded tenants");
        // Break the chain: tear the inner service down behind the host's
        // back and invalidate the verdict, as a respawn would.
        let svc = service_enclave_name("t0", ServiceKind::TlsEcho);
        server.app.unload(&svc).unwrap();
        server.tenants[0].attested = false;
        let mut f = RequestFactory::new(ServiceKind::TlsEcho, 0, 7);
        assert_eq!(
            server.submit(0, 0, 0, f.next_request()),
            Admission::RejectedUnattested,
            "no verified chain, no traffic"
        );
        assert_eq!(
            server.tenants()[0].attest_failures.values().sum::<u64>(),
            1,
            "the refusal reason was counted"
        );
    }

    #[test]
    fn per_tenant_state_survives_a_double_migration() {
        let mut server =
            HostServer::build(HostConfig::new(specs(2, &[ServiceKind::TlsEcho]))).unwrap();
        let mut factories = vec![
            RequestFactory::new(ServiceKind::TlsEcho, 0, 7),
            RequestFactory::new(ServiceKind::TlsEcho, 1, 7),
        ];
        // A respawn: crash chaos confined to tenant 0's enclaves.
        let plan = FaultPlan::parse("crash:3", 7).unwrap();
        server.install_chaos_for_tenant(plan, 0).unwrap();
        run_segment(&mut server, &[0, 1], &mut factories, 6);
        server.app.machine.clear_chaos();
        // An attestation refusal: the chain breaks behind the host's
        // back, the next submission is refused and counted, then the
        // enclaves are rebuilt and the chain re-proven.
        let spec = server.tenants()[0].spec.clone();
        server.teardown_enclaves(&spec);
        server.tenants[0].attested = false;
        assert_eq!(
            server.submit(0, 0, 0, Vec::new()),
            Admission::RejectedUnattested
        );
        server.load_tenant(&spec, 0).unwrap();
        server.attest_tenant(0).unwrap();
        run_segment(&mut server, &[0, 1], &mut factories, 2);

        let before = server.tenants()[0].clone();
        assert!(before.recovery.respawns > 0, "the crash chaos respawned");
        assert!(before.attest_failures.values().sum::<u64>() > 0);
        assert!(before.next_seq > 0 && before.completed > 0);

        let first = server.extract_tenant(0).unwrap();
        let mid = server.adopt_tenant(&first, first.seal_counter).unwrap();
        let second = server.extract_tenant(mid).unwrap();
        let local = server.adopt_tenant(&second, second.seal_counter).unwrap();
        assert_eq!((first.seal_counter, second.seal_counter), (1, 2));

        let after = &server.tenants()[local];
        assert_eq!(after.seal_counter, 2);
        assert_eq!(after.recovery.respawns, before.recovery.respawns);
        assert_eq!(after.attest_failures, before.attest_failures);
        assert_eq!(after.next_seq, before.next_seq);
        assert_eq!(after.last_completed_seq, before.last_completed_seq);
        assert_eq!(
            [
                after.accepted,
                after.rejected_full,
                after.rejected_shed,
                after.completed,
                after.shed_requests,
            ],
            [
                before.accepted,
                before.rejected_full,
                before.rejected_shed,
                before.completed,
                before.shed_requests,
            ]
        );
        for name in after.spec.enclave_names() {
            let eid = server.app.eid(&name).unwrap();
            assert_eq!(server.eid_owner(eid.0), Some(local), "{name}");
        }
        // The stubs left behind report nothing.
        assert!(server.tenants()[..local]
            .iter()
            .filter(|t| t.spec.name == "t0")
            .all(|t| !t.loaded && t.accepted == 0 && t.recovery.respawns == 0));
    }
}

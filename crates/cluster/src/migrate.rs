//! Live cross-shard tenant migration: the cluster-level half of the
//! sealed-state lifecycle.
//!
//! A migration moves one tenant's sealed session state from its source
//! shard's machine to a destination shard's machine mid-run:
//!
//! 1. the source server runs the five-phase extract (quiesce → seal →
//!    EREMOVE), producing a [`ne_host::TenantSnapshot`] whose blobs are
//!    bound to the enclave's *measurement* — MRENCLAVE is load-position
//!    independent, so the rebuilt enclave on any machine derives the
//!    same `EGETKEY` seal key;
//! 2. the cluster advances the tenant's **seal-counter floor** (the
//!    coordinator-owned freshness authority — a replayed old snapshot
//!    is internally consistent, so only the floor can refuse it);
//! 3. the destination server adopts (rebuild → NASSO re-association →
//!    NEREPORT attestation → unseal-with-floor → resume). A failed
//!    adoption rolls the snapshot back onto the source shard — the
//!    tenant keeps serving either way, and no accepted request is ever
//!    dropped (parked requests travel inside the snapshot).
//!
//! Migrations only happen at **segment barriers** — points where every
//! shard has drained — between the closed segments of a
//! [`crate::Scenario`] driven by [`Cluster::run`]. Three triggers
//! compose at a barrier, in deterministic order: planned moves from the
//! [`MigrationPolicy`], EPC-pressure evacuation, then chaos-injected
//! requests (`migrate[:period]` in the fault grammar) drained from each
//! machine via [`ne_sgx::machine::Machine::take_migration_requests`].

use crate::cluster::Cluster;
use crate::drive::RequestSource;
use ne_host::{HostError, HostResult};
use ne_obs::{Sampler, TenantCarry};

/// One planned cross-shard move for a segmented closed run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannedMove {
    /// Fires at the barrier after this segment index (0-based). The
    /// final segment has no barrier, so moves planned there never fire.
    pub segment: usize,
    /// Global tenant id to move.
    pub global: usize,
    /// Destination shard.
    pub to_shard: usize,
}

/// Migration controls for a segmented closed run. The default policy
/// performs no planned moves, no EPC evacuation, and still honors
/// chaos-injected migration requests (they only exist if the fault
/// plan's grammar asked for `migrate`).
#[derive(Debug, Clone, Default)]
pub struct MigrationPolicy {
    /// Planned moves, executed in declaration order at their barriers.
    pub moves: Vec<PlannedMove>,
    /// When set, a shard whose free EPC is below this many pages at a
    /// barrier evacuates its largest loaded tenant to the freest other
    /// shard.
    pub epc_low_water: Option<usize>,
}

/// What triggered a migration attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationTrigger {
    /// A [`PlannedMove`] in the policy.
    Planned,
    /// The EPC low-water evacuation policy.
    EpcPressure,
    /// A chaos-injected migration request.
    Chaos,
}

impl MigrationTrigger {
    /// Stable lowercase name (for logs and exports).
    pub fn name(self) -> &'static str {
        match self {
            MigrationTrigger::Planned => "planned",
            MigrationTrigger::EpcPressure => "epc-pressure",
            MigrationTrigger::Chaos => "chaos",
        }
    }
}

/// Outcome of one migration attempt. Both arms leave the tenant
/// serving somewhere — a migration never loses a tenant.
#[derive(Debug)]
pub enum MigrationOutcome {
    /// The tenant now serves from the destination shard.
    Adopted {
        /// Destination shard.
        to: usize,
        /// The tenant's new local slot there.
        local: usize,
    },
    /// Adoption failed; the snapshot was rolled back onto the source
    /// shard and the tenant serves from there.
    RolledBack {
        /// Why the destination refused.
        error: HostError,
        /// The tenant's new local slot back on the source shard.
        local: usize,
    },
}

/// One barrier migration, as recorded by [`Cluster::run`].
#[derive(Debug)]
pub struct MigrationRecord {
    /// Barrier index (after this segment).
    pub segment: usize,
    /// Global tenant id.
    pub global: usize,
    /// Source shard.
    pub from: usize,
    /// What asked for the move.
    pub trigger: MigrationTrigger,
    /// How it ended.
    pub outcome: MigrationOutcome,
}

impl Cluster {
    /// Migrates global tenant `global` from `from_shard` to `to_shard`
    /// on an otherwise idle cluster (no driver running, no samplers
    /// attached — [`Cluster::run`] handles its own bookkeeping).
    /// On a refused adoption the tenant is rolled back onto
    /// `from_shard` and the refusal is reported in the outcome.
    ///
    /// # Errors
    ///
    /// [`HostError::BadRequest`] for an invalid placement or shard pair;
    /// extraction failures (e.g. an open circuit breaker); a rollback
    /// that itself fails (the only path that can lose a tenant, and it
    /// propagates rather than being swallowed).
    pub fn migrate_tenant(
        &mut self,
        global: usize,
        from_shard: usize,
        to_shard: usize,
    ) -> HostResult<MigrationOutcome> {
        if global >= self.assignment.len() {
            return Err(HostError::BadRequest(format!("no tenant {global}")));
        }
        if to_shard >= self.shards.len() {
            return Err(HostError::BadRequest(format!("no shard {to_shard}")));
        }
        let (placed, _) = self.assignment[global];
        if placed != from_shard {
            return Err(HostError::BadRequest(format!(
                "tenant {global} is on shard {placed}, not {from_shard}"
            )));
        }
        if from_shard == to_shard {
            return Err(HostError::BadRequest(format!(
                "tenant {global} is already on shard {to_shard}"
            )));
        }
        let (_, outcome) = self.do_migrate(global, to_shard)?;
        Ok(outcome)
    }

    /// The extract → floor → adopt-or-rollback core. Returns the old
    /// local slot on the source shard alongside the outcome so driver
    /// wrappers can move their per-slot state.
    fn do_migrate(&mut self, global: usize, to: usize) -> HostResult<(usize, MigrationOutcome)> {
        let (from, local) = self.assignment[global];
        let snap = self.shards[from].server.extract_tenant(local)?;
        self.seal_floors[global] = snap.seal_counter;
        let floor = self.seal_floors[global];
        match self.shards[to].server.adopt_tenant(&snap, floor) {
            Ok(new_local) => {
                self.shards[to].globals.push(global);
                self.assignment[global] = (to, new_local);
                Ok((
                    local,
                    MigrationOutcome::Adopted {
                        to,
                        local: new_local,
                    },
                ))
            }
            Err(error) => {
                let new_local = self.shards[from].server.rollback_tenant(&snap, floor)?;
                self.shards[from].globals.push(global);
                self.assignment[global] = (from, new_local);
                Ok((
                    local,
                    MigrationOutcome::RolledBack {
                        error,
                        local: new_local,
                    },
                ))
            }
        }
    }

    /// [`Cluster::do_migrate`] plus the per-shard driver bookkeeping:
    /// retires the tenant on the source sampler, adopts it on whichever
    /// shard it landed on, and moves its request stream
    /// ([`RequestSource::move_tenant`]) so the next segment keeps its
    /// payload stream position.
    pub(crate) fn migrate_for_driver<S: RequestSource>(
        &mut self,
        global: usize,
        to: usize,
        state: &mut [(S, Option<Sampler>)],
    ) -> HostResult<MigrationOutcome> {
        let (from, _) = self.assignment[global];
        let (old_local, outcome) = self.do_migrate(global, to)?;
        let landed = match &outcome {
            MigrationOutcome::Adopted { to, .. } => *to,
            MigrationOutcome::RolledBack { .. } => from,
        };
        let carry: Option<TenantCarry> = state[from]
            .1
            .as_mut()
            .map(|sampler| sampler.retire_tenant(global));
        if let (Some(sampler), Some(carry)) = (state[landed].1.as_mut(), carry) {
            sampler.adopt_tenant(&self.shards[landed].server, global, carry);
        }
        if landed == from {
            state[from].0.move_tenant(old_local, None);
        } else {
            let [src, dest] = state
                .get_disjoint_mut([from, landed])
                .expect("distinct shards");
            src.0.move_tenant(old_local, Some(&mut dest.0));
        }
        Ok(outcome)
    }

    /// The freest other shard (most free EPC pages; ties go to the
    /// lowest shard id). `None` on a one-shard cluster.
    fn freest_shard_excluding(&self, source: usize) -> Option<usize> {
        self.shards
            .iter()
            .filter(|s| s.id != source)
            .max_by(|a, b| {
                let fa = a.server.app.machine.free_epc_pages();
                let fb = b.server.app.machine.free_epc_pages();
                fa.cmp(&fb).then(b.id.cmp(&a.id))
            })
            .map(|s| s.id)
    }

    /// True if the tenant can be extracted right now (loaded, breaker
    /// closed) — pre-filtering keeps barrier migration total and turns
    /// "cannot move" into "did not move" instead of a driver error.
    fn migratable(&self, global: usize) -> bool {
        let (s, l) = self.assignment[global];
        let server = &self.shards[s].server;
        let t = &server.tenants()[l];
        t.loaded && !t.recovery.breaker_open
    }

    /// Collects this barrier's moves in deterministic order: planned
    /// moves first, then EPC-pressure evacuations (shard order), then
    /// chaos-injected requests (shard order, request order). Each
    /// tenant moves at most once per barrier; machine-side migration
    /// requests are drained here even when they end up skipped.
    pub(crate) fn barrier_moves(
        &mut self,
        segment: usize,
        policy: &MigrationPolicy,
    ) -> Vec<(usize, usize, MigrationTrigger)> {
        let mut moves: Vec<(usize, usize, MigrationTrigger)> = Vec::new();
        let mut moving = vec![false; self.assignment.len()];
        for m in &policy.moves {
            if m.segment != segment
                || m.global >= self.assignment.len()
                || m.to_shard >= self.shards.len()
                || m.to_shard == self.assignment[m.global].0
                || moving[m.global]
                || !self.migratable(m.global)
            {
                continue;
            }
            moving[m.global] = true;
            moves.push((m.global, m.to_shard, MigrationTrigger::Planned));
        }
        if let Some(low) = policy.epc_low_water {
            for s in 0..self.shards.len() {
                if self.shards[s].server.app.machine.free_epc_pages() >= low {
                    continue;
                }
                // The biggest movable tenant on the shard; ties go to
                // the lowest global id.
                let victim = (0..self.assignment.len())
                    .filter(|&g| self.assignment[g].0 == s && !moving[g] && self.migratable(g))
                    .max_by_key(|&g| {
                        let (_, l) = self.assignment[g];
                        (
                            self.shards[s].server.tenant_epc_pages(l),
                            std::cmp::Reverse(g),
                        )
                    });
                let (Some(g), Some(dest)) = (victim, self.freest_shard_excluding(s)) else {
                    continue;
                };
                moving[g] = true;
                moves.push((g, dest, MigrationTrigger::EpcPressure));
            }
        }
        for s in 0..self.shards.len() {
            let requests = self.shards[s].server.app.machine.take_migration_requests();
            for eid in requests {
                let Some(l) = self.shards[s].server.eid_owner(eid) else {
                    continue;
                };
                let g = self.shards[s].globals[l];
                if self.assignment[g] != (s, l) || moving[g] || !self.migratable(g) {
                    continue;
                }
                let Some(dest) = self.freest_shard_excluding(s) else {
                    continue;
                };
                moving[g] = true;
                moves.push((g, dest, MigrationTrigger::Chaos));
            }
        }
        moves
    }
}

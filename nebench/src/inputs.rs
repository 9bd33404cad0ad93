//! Workload inputs, generated from the seed before any clock starts:
//! every request payload (the clients' own AES-GCM sealing included) and
//! the open-loop arrival schedule.

use ne_host::{RequestFactory, ServiceKind, TenantSpec};

/// Index of `kind` in `ServiceKind::ALL` (echo, db, svm).
pub fn kind_index(kind: ServiceKind) -> usize {
    ServiceKind::ALL
        .iter()
        .position(|&k| k == kind)
        .expect("ServiceKind::ALL lists every kind")
}

/// One (tenant, service) client.
#[derive(Debug)]
pub struct Pair {
    /// Tenant index.
    pub tenant: usize,
    /// Service index within the tenant.
    pub service: usize,
    /// Service kind.
    pub kind: ServiceKind,
    /// The request stream's factory, kept for reply checks.
    pub factory: RequestFactory,
    /// Provisioning payloads served before the measured window.
    pub warmup: Vec<Vec<u8>>,
    /// Measured payloads, in submission order.
    pub measured: Vec<Vec<u8>>,
}

/// A workload's complete input set.
#[derive(Debug)]
pub struct Inputs {
    /// Hosted tenants.
    pub specs: Vec<TenantSpec>,
    /// Clients, in (tenant, service) order.
    pub pairs: Vec<Pair>,
    /// `pair_of[tenant][service]` = index into `pairs`.
    pub pair_of: Vec<Vec<usize>>,
    /// Open loop only: `(pair, arrival cycle)` in arrival order.
    pub schedule: Vec<(usize, u64)>,
    /// Seed of the server and of every stream.
    pub seed: u64,
}

/// An open-loop arrival process.
#[derive(Debug, Clone, Copy)]
pub struct Arrivals {
    /// Mean exponential gap between arrivals, in simulated cycles.
    pub mean_gap: f64,
    /// Arrivals per round for a client of each kind.
    pub weight: fn(ServiceKind) -> usize,
}

/// SplitMix64, the schedule's generator.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Inputs {
    /// Generates the inputs of `rounds` rounds over the clients of
    /// `specs` from `seed`: one measured payload per client per round in a
    /// closed loop; with `arrivals`, `weight(kind)` per client per round,
    /// scheduled round-robin (a client's arrivals in a round adjacent)
    /// with exponential gaps. Each stream also gets its provisioning
    /// prefix (at least one request per service, to warm its path).
    pub fn generate(
        specs: Vec<TenantSpec>,
        rounds: usize,
        seed: u64,
        arrivals: Option<Arrivals>,
    ) -> Inputs {
        let weight = |kind| arrivals.map_or(1, |a| (a.weight)(kind));
        let mut pairs = Vec::new();
        let mut pair_of = Vec::new();
        let mut slots = Vec::new();
        for (tenant, spec) in specs.iter().enumerate() {
            let mut row = Vec::new();
            for (service, &kind) in spec.services.iter().enumerate() {
                let mut factory = RequestFactory::new(kind, tenant, seed);
                let warmup = (0..factory.setup_requests().max(1))
                    .map(|_| factory.next_request())
                    .collect();
                let measured = (0..rounds * weight(kind))
                    .map(|_| factory.next_request())
                    .collect();
                row.push(pairs.len());
                slots.extend(std::iter::repeat_n(pairs.len(), weight(kind)));
                pairs.push(Pair {
                    tenant,
                    service,
                    kind,
                    factory,
                    warmup,
                    measured,
                });
            }
            pair_of.push(row);
        }
        let schedule = match arrivals {
            None => Vec::new(),
            Some(a) => {
                let mut state = seed ^ 0x0BE7_5C4E_D01E_5EED;
                let mut at = 0u64;
                (0..rounds * slots.len())
                    .map(|i| {
                        let u = (splitmix(&mut state) >> 11) as f64 / (1u64 << 53) as f64;
                        at += (-(1.0 - u).ln() * a.mean_gap) as u64;
                        (slots[i % slots.len()], at)
                    })
                    .collect()
            }
        };
        Inputs {
            specs,
            pairs,
            pair_of,
            schedule,
            seed,
        }
    }
}

//! Builds a workload's deployment from its fleet file, the way every
//! example in the repository does: `FleetTopology` → `build_service` for
//! TCP replicas (bound on `127.0.0.1:0`, dialled at `service.addr()`),
//! `FleetTopology::connect` for the client side.

use impir_core::scheme::TwoServerPir;
use impir_core::topology::{FleetTopology, TransportKind};
use impir_core::transport::PirTransport;
use impir_core::{Database, PirClient, PirError};
use impir_server::{build_service, PirService};

use crate::spec::Workload;

pub struct Deployment {
    /// The fleet file's topology with every TCP replica's `listen` patched
    /// to the address its service actually bound.
    pub topology: FleetTopology,
    services: Vec<PirService>,
    /// The database every replica holds; the harness mirrors updates into
    /// it and compares every reconstructed record against it.
    pub oracle: Database,
}

impl Deployment {
    pub fn start(workload: &Workload) -> Result<Self, PirError> {
        let mut topology = FleetTopology::parse(workload.fleet)?;
        let mut services = Vec::new();
        // Two-server PIR uses the first two replicas.
        for replica in 0..2 {
            if topology.replicas[replica].transport == TransportKind::Tcp {
                let service = build_service(&topology, replica)?;
                topology.replicas[replica].listen = Some(service.addr().to_string());
                services.push(service);
            }
        }
        let oracle = (*topology.build_database()?).clone();
        Ok(Deployment {
            topology,
            services,
            oracle,
        })
    }

    pub fn client(&self, seed: u64) -> Result<PirClient, PirError> {
        PirClient::new(self.topology.records, self.topology.record_bytes, seed)
    }

    /// A client-side session to replica 0 or 1 (for local replicas this
    /// builds the replica's engine in-process).
    pub fn connect(&self, replica: usize) -> Result<Box<dyn PirTransport>, PirError> {
        self.topology.connect(replica)
    }

    pub fn scheme(&self, seed: u64) -> Result<TwoServerPir, PirError> {
        TwoServerPir::from_transports(self.client(seed)?, self.connect(0)?, self.connect(1)?)
    }

    pub fn is_tcp(&self) -> bool {
        !self.services.is_empty()
    }

    /// Stops the replicas and joins their threads.
    pub fn shutdown(self) {
        for service in self.services {
            service.shutdown();
        }
    }
}

/// A numeric field of `/proc/self/status` (`VmHWM` in kB, `Threads`); 0
/// where `/proc` is unavailable.
pub fn proc_status(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                line.strip_prefix(field)?
                    .strip_prefix(':')?
                    .split_whitespace()
                    .next()?
                    .parse()
                    .ok()
            })
        })
        .unwrap_or(0.0)
}

/// A small seeded generator for indices and update contents (SplitMix64),
/// so a seed fixes a run's inputs without depending on library RNGs.
pub struct Seeded(u64);

impl Seeded {
    pub fn new(seed: u64) -> Self {
        Seeded(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }

    pub fn bytes(&mut self, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len + 8);
        while out.len() < len {
            out.extend_from_slice(&self.next().to_le_bytes());
        }
        out.truncate(len);
        out
    }
}

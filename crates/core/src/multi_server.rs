//! Generalisation to more than two servers (paper §3).
//!
//! The paper's design and evaluation use two servers, but §3 notes that
//! "the details are easily generalizable to multi-server PIR constructions
//! where n > 2 — however, communication overhead from distributing queries
//! increases with the number of servers". This module provides that
//! generalisation using the straightforward n-party XOR sharing of the
//! one-hot query vector: every server receives a share of size `N` bits,
//! performs exactly the same `dpXOR` scan as in the two-server protocol,
//! and the client XORs all `n` subresults.
//!
//! Since the service-layer refactor each server's scan goes through a
//! [`PirTransport`] ([`Frame::SelectorScan`](crate::wire::Frame) on the
//! wire), so n-server deployments are as transport-agnostic as the
//! two-server scheme: the scan runs through an in-process
//! [`QueryEngine`] or a remote `impir-server`, and the deployment cannot
//! tell the difference.
//!
//! (A sub-linear-key n-party construction would require general function
//! secret sharing rather than the two-party DPF; the paper does not
//! evaluate one and neither do we — the upload cost reported by
//! [`NServerNaivePir::upload_bytes_per_query`] makes the trade-off
//! explicit, now measured in actual wire bytes.)

use std::sync::Arc;

use impir_dpf::naive::generate_multi_party_shares;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::batch::{UpdatableBackend, UpdateOutcome};
use crate::database::Database;
use crate::dpxor;
use crate::engine::{EngineConfig, QueryEngine};
use crate::error::PirError;
use crate::server::cpu::{CpuPirServer, CpuServerConfig};
use crate::server::phases::PhaseBreakdown;
use crate::shard::ShardedDatabase;
use crate::topology::FleetTopology;
use crate::transport::{LocalTransport, PirTransport, ServerInfo};
use crate::wire::selector_scan_frame_bytes_for_bits;

/// An n-server PIR deployment based on linear (naive) query shares.
///
/// Privacy holds as long as at least one of the `n` servers does not
/// collude with the others. Each server's scan runs through one shared
/// [`PirTransport`] (every replica holds the same data, so one transport
/// standing in for all `n` servers loses nothing functionally; a real
/// deployment would hold one transport per replica).
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use impir_core::{database::Database, multi_server::NServerNaivePir};
///
/// let db = Arc::new(Database::random(512, 32, 3)?);
/// let mut pir = NServerNaivePir::new(db.clone(), 4, 7)?;
/// assert_eq!(pir.query(99)?, db.record(99));
/// # Ok::<(), impir_core::PirError>(())
/// ```
pub struct NServerNaivePir {
    num_records: u64,
    record_size: usize,
    transport: Box<dyn PirTransport>,
    servers: usize,
    rng: StdRng,
    last_phases: Option<PhaseBreakdown>,
}

impl std::fmt::Debug for NServerNaivePir {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NServerNaivePir")
            .field("num_records", &self.num_records)
            .field("record_size", &self.record_size)
            .field("servers", &self.servers)
            .finish_non_exhaustive()
    }
}

/// The outcome of one round of `n` scans (see
/// [`NServerNaivePir::query`]).
enum ScanRound {
    /// All scans saw one epoch; the XOR reconstructs a real record.
    Done {
        record: Vec<u8>,
        phases: PhaseBreakdown,
    },
    /// The round straddled an update: scans answered at two epochs.
    Torn { first: u64, second: u64 },
}

impl NServerNaivePir {
    /// How many full scan rounds one [`NServerNaivePir::query`] attempts
    /// when concurrent updates keep tearing the round. Each retry reuses
    /// the same shares (privacy-neutral — shares never depend on the
    /// database contents), so a retry costs only the repeated scans.
    pub const MID_QUERY_RETRIES: usize = 3;

    /// Creates a deployment with `servers ≥ 2` CPU-backed replicas of
    /// `database`.
    ///
    /// # Errors
    ///
    /// Returns [`PirError::Config`] if fewer than two servers are requested.
    pub fn new(database: Arc<Database>, servers: usize, seed: u64) -> Result<Self, PirError> {
        Self::sharded(database, servers, 1, seed)
    }

    /// Creates a deployment whose replicas are each split into `shards`
    /// CPU-backed shards driven by the engine.
    ///
    /// # Errors
    ///
    /// Returns [`PirError::Config`] if fewer than two servers are requested
    /// or the shard plan is degenerate.
    pub fn sharded(
        database: Arc<Database>,
        servers: usize,
        shards: usize,
        seed: u64,
    ) -> Result<Self, PirError> {
        let sharded = ShardedDatabase::uniform(Arc::clone(&database), shards)?;
        let engine = QueryEngine::sharded(&sharded, EngineConfig::default(), |shard_db, _| {
            CpuPirServer::new(shard_db, CpuServerConfig::baseline())
        })?;
        NServerNaivePir::with_engine(database, engine, servers, seed)
    }

    /// Creates a deployment scanning through a caller-built engine (any
    /// backend, any shard plan) behind a [`LocalTransport`].
    ///
    /// # Errors
    ///
    /// Returns [`PirError::Config`] if fewer than two servers are requested
    /// or the engine's geometry does not match `database`.
    pub fn with_engine<S>(
        database: Arc<Database>,
        engine: QueryEngine<S>,
        servers: usize,
        seed: u64,
    ) -> Result<Self, PirError>
    where
        S: UpdatableBackend + Send + Sync + 'static,
    {
        if engine.num_records() != database.num_records()
            || engine.record_size() != database.record_size()
        {
            return Err(PirError::Config {
                reason: "engine and database disagree on the geometry".to_string(),
            });
        }
        NServerNaivePir::with_transport(Box::new(LocalTransport::new(engine)), servers, seed)
    }

    /// Creates a deployment scanning through any [`PirTransport`] —
    /// in-process or remote. The served geometry is taken from the
    /// transport's [`ServerInfo`].
    ///
    /// # Errors
    ///
    /// Returns [`PirError::Config`] if fewer than two servers are
    /// requested and propagates transport failures.
    pub fn with_transport(
        mut transport: Box<dyn PirTransport>,
        servers: usize,
        seed: u64,
    ) -> Result<Self, PirError> {
        if servers < 2 {
            return Err(PirError::Config {
                reason: "multi-server PIR needs at least two non-colluding servers".to_string(),
            });
        }
        let info = transport.server_info()?;
        Ok(NServerNaivePir {
            num_records: info.num_records,
            record_size: info.record_size,
            transport,
            servers,
            rng: StdRng::seed_from_u64(seed),
            last_phases: None,
        })
    }

    /// Creates an `n`-server deployment from a [`FleetTopology`]: the
    /// topology's first replica stands in for the `servers` identical
    /// replicas (each of the `n` scans goes through the same transport —
    /// correct because replicas hold identical databases), connected the
    /// way the topology says (TCP with its retry policy, or a freshly
    /// built local engine). The share RNG is seeded from the topology's
    /// seed.
    ///
    /// # Errors
    ///
    /// Returns [`PirError::Config`] if fewer than two servers are
    /// requested or the topology is invalid, and propagates transport
    /// failures.
    pub fn from_topology(topology: &FleetTopology, servers: usize) -> Result<Self, PirError> {
        Self::with_transport(topology.connect(0)?, servers, topology.seed)
    }

    /// Number of servers in the deployment.
    #[must_use]
    pub fn servers(&self) -> usize {
        self.servers
    }

    /// Fetches fresh [`ServerInfo`] from the transport standing in for the
    /// replicas.
    ///
    /// # Errors
    ///
    /// Propagates transport failures.
    pub fn server_info(&mut self) -> Result<ServerInfo, PirError> {
        self.transport.server_info()
    }

    /// Summed per-phase times across all `n` server scans of the most
    /// recent [`NServerNaivePir::query`].
    #[must_use]
    pub fn last_phases(&self) -> Option<&PhaseBreakdown> {
        self.last_phases.as_ref()
    }

    /// Upload cost of one query in wire bytes: every server receives an
    /// `N`-bit share (as a [`crate::wire::Frame::SelectorScan`], framing
    /// included), so the total grows linearly in both the database size and
    /// the number of servers — the communication overhead §3 warns about.
    #[must_use]
    pub fn upload_bytes_per_query(&self) -> u64 {
        self.servers as u64 * selector_scan_frame_bytes_for_bits(self.num_records as usize) as u64
    }

    /// Privately retrieves the record at `index`.
    ///
    /// Each server's work runs through the transport: it computes the
    /// selector-weighted XOR of the whole database under its share, exactly
    /// the `dpXOR` that the two-server backends run.
    ///
    /// An n-server query is `n` sequential scans, so an update can land
    /// between them; XOR-ing subresults from different database versions
    /// would reconstruct garbage. The scans' epoch tags detect this, and
    /// the query **retries** the full scan round (with the *same* shares —
    /// shares are independent of the database contents, so reuse is
    /// privacy-neutral) up to [`NServerNaivePir::MID_QUERY_RETRIES`]
    /// times before giving up.
    ///
    /// # Errors
    ///
    /// Returns [`PirError::IndexOutOfRange`] for invalid indices,
    /// propagates transport failures, and returns [`PirError::Protocol`]
    /// if every retry round was again torn by a concurrent update.
    pub fn query(&mut self, index: u64) -> Result<Vec<u8>, PirError> {
        if index >= self.num_records {
            return Err(PirError::IndexOutOfRange {
                index,
                num_records: self.num_records,
            });
        }
        let shares =
            generate_multi_party_shares(self.num_records, index, self.servers, &mut self.rng)?;
        let mut torn = None;
        for _ in 0..Self::MID_QUERY_RETRIES {
            match self.scan_round(&shares)? {
                ScanRound::Done { record, phases } => {
                    self.last_phases = Some(phases);
                    return Ok(record);
                }
                ScanRound::Torn { first, second } => torn = Some((first, second)),
            }
        }
        let (first, second) = torn.expect("at least one retry round ran");
        Err(PirError::Protocol {
            reason: format!(
                "scans of one query executed at different database epochs ({first} and \
                 {second}) in {} consecutive rounds; updates keep landing mid-query",
                Self::MID_QUERY_RETRIES
            ),
        })
    }

    /// One full round of `n` scans. `Torn` means the round straddled an
    /// update (different epochs across scans) and should be retried;
    /// transport and geometry failures propagate as hard errors.
    fn scan_round(&mut self, shares: &[impir_dpf::SelectorVector]) -> Result<ScanRound, PirError> {
        let mut record = vec![0u8; self.record_size];
        let mut phases = PhaseBreakdown::zero();
        let mut epoch: Option<u64> = None;
        for share in shares {
            let scan = self.transport.scan_selector(share)?;
            if scan.payload.len() != self.record_size {
                return Err(PirError::Protocol {
                    reason: format!(
                        "server answered a {}-byte subresult for {}-byte records",
                        scan.payload.len(),
                        self.record_size
                    ),
                });
            }
            match epoch {
                None => epoch = Some(scan.epoch),
                Some(first) if first != scan.epoch => {
                    return Ok(ScanRound::Torn {
                        first,
                        second: scan.epoch,
                    });
                }
                Some(_) => {}
            }
            phases.merge(&scan.phases);
            dpxor::xor_in_place(&mut record, &scan.payload);
        }
        Ok(ScanRound::Done { record, phases })
    }

    /// Applies a batch of record updates through the transport standing in
    /// for all `n` replicas (every real deployment would apply the same
    /// batch on each server).
    ///
    /// # Errors
    ///
    /// Propagates the engine's validation and backend errors; on error no
    /// replica has changed.
    pub fn apply_updates(&mut self, updates: &[(u64, Vec<u8>)]) -> Result<UpdateOutcome, PirError> {
        self.transport.apply_updates(updates)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::pim::{ImPirConfig, ImPirServer};
    use crate::wire::FRAME_HEADER_BYTES;
    use proptest::prelude::*;

    #[test]
    fn retrieval_is_correct_for_various_server_counts() {
        let db = Arc::new(Database::random(300, 16, 1).unwrap());
        for servers in [2usize, 3, 5, 8] {
            let mut pir = NServerNaivePir::new(db.clone(), servers, servers as u64).unwrap();
            for index in [0u64, 123, 299] {
                assert_eq!(
                    pir.query(index).unwrap(),
                    db.record(index),
                    "servers={servers}"
                );
            }
            assert!(pir.last_phases().is_some());
        }
    }

    #[test]
    fn sharded_and_pim_backed_deployments_agree() {
        let db = Arc::new(Database::random(240, 16, 4).unwrap());
        let mut flat = NServerNaivePir::new(db.clone(), 3, 9).unwrap();
        let mut sharded = NServerNaivePir::sharded(db.clone(), 3, 4, 9).unwrap();
        let sharded_pim = ShardedDatabase::uniform(db.clone(), 2).unwrap();
        let engine = QueryEngine::sharded(&sharded_pim, EngineConfig::default(), |shard_db, _| {
            ImPirServer::new(shard_db, ImPirConfig::tiny_test(2))
        })
        .unwrap();
        let mut pim_backed = NServerNaivePir::with_engine(db.clone(), engine, 3, 9).unwrap();
        assert_eq!(sharded.server_info().unwrap().shard_count, 4);
        for index in [0u64, 120, 239] {
            let expected = db.record(index);
            assert_eq!(flat.query(index).unwrap(), expected);
            assert_eq!(sharded.query(index).unwrap(), expected);
            assert_eq!(pim_backed.query(index).unwrap(), expected);
        }
    }

    #[test]
    fn fewer_than_two_servers_is_rejected() {
        let db = Arc::new(Database::random(10, 8, 0).unwrap());
        assert!(NServerNaivePir::new(db, 1, 0).is_err());
    }

    #[test]
    fn upload_cost_grows_with_server_count_in_wire_bytes() {
        let db = Arc::new(Database::random(1024, 32, 0).unwrap());
        let two = NServerNaivePir::new(db.clone(), 2, 0).unwrap();
        let five = NServerNaivePir::new(db, 5, 0).unwrap();
        // One SelectorScan frame per server: framing + bit length + byte
        // length prefix + the 1024-bit (128-byte) share.
        let per_server = (FRAME_HEADER_BYTES + 8 + 4 + 128) as u64;
        assert_eq!(two.upload_bytes_per_query(), 2 * per_server);
        assert_eq!(five.upload_bytes_per_query(), 5 * per_server);
    }

    #[test]
    fn out_of_range_index_is_rejected() {
        let db = Arc::new(Database::random(10, 8, 0).unwrap());
        let mut pir = NServerNaivePir::new(db, 3, 0).unwrap();
        assert!(pir.query(10).is_err());
    }

    /// A transport that injects a database update after scans — the shape
    /// of a concurrent writer hitting the server mid-query. With
    /// `update_every_scan` false only the first scan is followed by an
    /// update (one torn round, then clean rounds); true keeps tearing
    /// every round, exhausting the query's bounded retries.
    struct InterleavingTransport {
        inner: crate::transport::LocalTransport<crate::server::cpu::CpuPirServer>,
        scans: usize,
        update_every_scan: bool,
    }

    impl crate::transport::PirTransport for InterleavingTransport {
        fn round_trip(
            &mut self,
            request: crate::wire::Frame,
        ) -> Result<crate::transport::RoundTrip, PirError> {
            let scan = matches!(request, crate::wire::Frame::SelectorScan { .. });
            let exchange = self.inner.round_trip(request)?;
            if scan {
                self.scans += 1;
                if self.scans == 1 || self.update_every_scan {
                    let record_size = self.inner.engine().record_size();
                    self.inner.apply_updates(&[(0, vec![0xEE; record_size])])?;
                }
            }
            Ok(exchange)
        }
    }

    fn interleaving_pir(update_every_scan: bool) -> NServerNaivePir {
        let db = Arc::new(Database::random(64, 8, 3).unwrap());
        let sharded = ShardedDatabase::uniform(db, 1).unwrap();
        let engine = QueryEngine::sharded(&sharded, EngineConfig::default(), |shard_db, _| {
            CpuPirServer::new(shard_db, CpuServerConfig::baseline())
        })
        .unwrap();
        let transport = InterleavingTransport {
            inner: crate::transport::LocalTransport::new(engine),
            scans: 0,
            update_every_scan,
        };
        NServerNaivePir::with_transport(Box::new(transport), 3, 7).unwrap()
    }

    #[test]
    fn an_update_landing_between_scans_is_retried_to_a_correct_record() {
        let db = Arc::new(Database::random(64, 8, 3).unwrap());
        let mut pir = interleaving_pir(false);
        // Round 1 is torn (scan 1 saw epoch 0, scans 2..n epoch 1); the
        // retry round runs clean at epoch 1 and must reconstruct the
        // record — which the update at index 0 did not touch.
        assert_eq!(pir.query(5).unwrap(), db.record(5));
    }

    #[test]
    fn updates_tearing_every_round_exhaust_the_bounded_retries() {
        let mut pir = interleaving_pir(true);
        // Every round straddles an update: the query must give up with an
        // error instead of XOR-ing mixed-version subresults (or looping
        // forever).
        assert!(matches!(pir.query(5), Err(PirError::Protocol { .. })));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        #[test]
        fn prop_retrieval_matches_database(
            num_records in 2u64..300,
            servers in 2usize..6,
            seed in any::<u64>(),
        ) {
            let db = Arc::new(Database::random(num_records, 24, seed).unwrap());
            let shards = 1 + (seed % 2) as usize;
            prop_assume!(shards as u64 <= num_records);
            let mut pir =
                NServerNaivePir::sharded(db.clone(), servers, shards, seed ^ 1).unwrap();
            let index = seed % num_records;
            prop_assert_eq!(pir.query(index).unwrap(), db.record(index).to_vec());
        }
    }
}

//! Property and acceptance tests for the topology layer: hostile config
//! input must decode to a clean [`PirError::Config`] (line-numbered,
//! never a panic), parse→serialize→parse must be the identity, the
//! classic server flags must desugar to the exact topology a file form
//! describes, and every checked-in `examples/topologies/*.fleet` file
//! must stay valid.

use im_pir::core::topology::{
    BackendSpec, FleetTopology, ReplicaSpec, RetrySpec, RouterSpec, ShardPolicy, TransportKind,
};
use im_pir::core::PirError;
use impir_server::cli::{parse_options, topology_from_flags};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parsing must end in a topology or a `Config` error — anything else
/// (panic, wrong error class) is a bug the property tests hunt for.
fn parses_cleanly(input: &str) -> Result<FleetTopology, ()> {
    match FleetTopology::parse(input) {
        Ok(topology) => Ok(topology),
        Err(PirError::Config { .. }) => Err(()),
        Err(other) => panic!("hostile input must map to PirError::Config, got {other:?}"),
    }
}

/// A deterministic arbitrary *valid* topology: every field the config
/// format can express, across both backends, both transports, per-replica
/// overrides and an optional router section.
fn arbitrary_topology(seed: u64) -> FleetTopology {
    let mut rng = StdRng::seed_from_u64(seed);
    let rng = &mut rng;
    let mut topology = FleetTopology::new(
        rng.gen_range(1..1u64 << 32),
        rng.gen_range(1..4096usize),
        rng.gen_range(0..u64::MAX),
    );
    topology.sharding = arbitrary_sharding(rng);
    topology.journal_batches = rng.gen_range(0..1024usize);
    topology.io_timeout_ms = rng.gen_range(1..100_000u64);
    topology.retry = RetrySpec {
        attempts: rng.gen_range(1..64u32),
        backoff_ms: rng.gen_range(0..100_000u64),
        max_backoff_ms: rng.gen_range(0..100_000u64),
        io_timeout_ms: rng.gen_range(0..100_000u64),
    };
    // A router requires an all-TCP fleet.
    let routed = rng.gen_range(0..3u32) == 0;
    let replicas = rng.gen_range(1..5usize);
    for index in 0..replicas {
        let tcp = routed || rng.gen_range(0..2u32) == 0;
        let mut replica = if tcp {
            ReplicaSpec::tcp(
                format!("r{index}.node-A_{}", rng.gen_range(0..100u32)),
                format!("127.0.0.1:{}", rng.gen_range(1024..65535u32)),
            )
        } else {
            ReplicaSpec::local(format!("r{index}.node-A_{}", rng.gen_range(0..100u32)))
        };
        if rng.gen_range(0..2u32) == 0 {
            replica.backend = BackendSpec::Pim {
                dpus: rng.gen_range(1..64usize),
                clusters: rng.gen_range(1..16usize),
            };
        }
        if rng.gen_range(0..2u32) == 0 {
            replica.sharding = Some(arbitrary_sharding(rng));
        }
        topology.replicas.push(replica);
    }
    if routed {
        topology.router = Some(RouterSpec {
            listen: format!("127.0.0.1:{}", rng.gen_range(1024..65535u32)),
            probe_interval_ms: rng.gen_range(1..60_000u64),
            max_lag_epochs: rng.gen_range(0..16u64),
        });
    }
    topology
}

fn arbitrary_sharding(rng: &mut StdRng) -> ShardPolicy {
    match rng.gen_range(0..3u32) {
        0 => ShardPolicy::Uniform(rng.gen_range(1..64usize)),
        1 => ShardPolicy::Declared,
        _ => ShardPolicy::Calibrated,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(80))]

    /// parse(serialize(t)) == t for arbitrary valid topologies: the config
    /// format loses nothing, across backends, transports, overrides and
    /// router sections — and a file that still carries the accepted-and-
    /// ignored `session-tier` key parses to the same topology, which
    /// serializes without it.
    #[test]
    fn prop_parse_serialize_parse_is_identity(seed in any::<u64>()) {
        let topology = arbitrary_topology(seed);
        prop_assume!(topology.validate().is_ok()); // duplicate random names
        let serialized = topology.to_config_string();
        prop_assert!(!serialized.contains("session-tier"));
        let tier = ["threads", "events"][(seed % 2) as usize];
        let legacy = serialized.replacen("[fleet]\n", &format!("[fleet]\nsession-tier = {tier}\n"), 1);
        for input in [&serialized, &legacy] {
            let reparsed = FleetTopology::parse(input)
                .expect("canonical serialization must reparse");
            prop_assert_eq!(&reparsed, &topology);
        }
    }

    /// Printable garbage never panics the parser and never produces a
    /// non-Config error.
    #[test]
    fn prop_garbage_input_errors_cleanly(seed in any::<u64>(), len in 0usize..600) {
        let mut rng = StdRng::seed_from_u64(seed);
        let garbage: String = (0..len)
            .map(|_| {
                // Bias toward the format's structural characters so the
                // generator actually reaches deep parser states.
                let structural = b"[]=# \n.-_records0123456789replica";
                char::from(structural[rng.gen_range(0..structural.len())])
            })
            .collect();
        let _ = parses_cleanly(&garbage);
    }

    /// Truncating a valid config at any char boundary either still parses
    /// (the cut fell between sections) or fails with a Config error —
    /// never a panic, never a bogus topology that fails validate().
    #[test]
    fn prop_truncations_error_cleanly(seed in any::<u64>(), cut in 0usize..4096) {
        let full = arbitrary_topology(seed).to_config_string();
        let cut = cut % (full.len() + 1);
        prop_assume!(full.is_char_boundary(cut));
        if let Ok(topology) = parses_cleanly(&full[..cut]) {
            prop_assert!(topology.validate().is_ok());
        }
    }

    /// Duplicating any `key = value` line is rejected: silent last-wins
    /// (or first-wins) would make fleet files ambiguous.
    #[test]
    fn prop_duplicate_keys_are_rejected(seed in any::<u64>(), pick in any::<u64>()) {
        let topology = arbitrary_topology(seed);
        prop_assume!(topology.validate().is_ok());
        let full = topology.to_config_string();
        let keyed: Vec<&str> = full.lines().filter(|l| l.contains('=')).collect();
        let line = keyed[(pick % keyed.len() as u64) as usize];
        // Re-insert the picked line directly after itself: same section,
        // same key, twice.
        let duplicated = full.replacen(line, &format!("{line}\n{line}"), 1);
        let err = FleetTopology::parse(&duplicated)
            .expect_err("duplicate keys must be rejected");
        let PirError::Config { reason } = err else {
            panic!("expected a Config error, got {err:?}");
        };
        prop_assert!(reason.contains("line "), "no line number in: {reason}");
        prop_assert!(reason.contains("duplicate"), "not a duplicate error: {reason}");
    }

    /// Numbers too large for their field are a line-numbered Config error,
    /// not a wraparound or a panic.
    #[test]
    fn prop_overflowing_numbers_are_rejected(extra_digits in 1usize..30) {
        let huge = format!("18446744073709551616{}", "9".repeat(extra_digits));
        let input = format!("[fleet]\nrecords = {huge}\n\n[replica a]\ntransport = local\n");
        let err = FleetTopology::parse(&input).expect_err("overflow must be rejected");
        let PirError::Config { reason } = err else {
            panic!("expected a Config error, got {err:?}");
        };
        prop_assert!(reason.contains("line 2"), "wrong/missing line number: {reason}");
    }
}

/// Satellite pin: the classic flag form and the file form of the SAME
/// deployment build equal `FleetTopology` values — the flags are sugar,
/// not a second config language.
#[test]
fn flag_built_and_file_built_topologies_are_equal() {
    let args: Vec<String> = [
        "--listen",
        "127.0.0.1:17700",
        "--records",
        "8192",
        "--record-bytes",
        "64",
        "--seed",
        "1234",
        "--backend",
        "pim",
        "--dpus",
        "16",
        "--clusters",
        "4",
        "--autoshard",
        "declared",
        "--journal-batches",
        "128",
        "--io-timeout-ms",
        "75",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let from_flags = topology_from_flags(&parse_options(&args).unwrap()).unwrap();

    let file = "\
# the same deployment, as a file
[fleet]
records = 8192
record-bytes = 64
seed = 1234
autoshard = declared
journal-batches = 128
io-timeout-ms = 75

[replica primary]
transport = tcp
listen = 127.0.0.1:17700
backend = pim
dpus = 16
clusters = 4
";
    let from_file = FleetTopology::parse(file).unwrap();
    assert_eq!(from_flags, from_file);

    // And both survive the canonical serializer unchanged.
    assert_eq!(
        FleetTopology::parse(&from_flags.to_config_string()).unwrap(),
        from_file
    );
}

/// Every checked-in example topology file parses, validates, and
/// round-trips through the canonical serializer.
#[test]
fn checked_in_topology_files_stay_valid() {
    for path in [
        "examples/topologies/single_host_dev.fleet",
        "examples/topologies/two_replica_tcp.fleet",
        "examples/topologies/router_mixed_fleet.fleet",
        // Carries `session-tier = events`, accepted and ignored.
        "e2e/workloads/small-cpu-tcp.fleet",
    ] {
        let topology =
            FleetTopology::from_file(path).unwrap_or_else(|err| panic!("{path} must parse: {err}"));
        topology
            .validate()
            .unwrap_or_else(|err| panic!("{path} must validate: {err}"));
        let reparsed = FleetTopology::parse(&topology.to_config_string()).unwrap();
        assert_eq!(reparsed, topology, "{path} must round-trip");
    }
}

/// A nonexistent file is a Config error naming the path, not an I/O
/// panic.
#[test]
fn missing_topology_file_errors_with_the_path() {
    let err = FleetTopology::from_file("examples/topologies/no_such.fleet").unwrap_err();
    let PirError::Config { reason } = err else {
        panic!("expected Config, got {err:?}");
    };
    assert!(reason.contains("no_such.fleet"), "{reason}");
}

/// The transport kinds the parser infers: an explicit `transport` line
/// always wins; without one, a listen address means TCP.
#[test]
fn transport_inference_follows_the_listen_address() {
    let topology = FleetTopology::parse(
        "[fleet]\nrecords = 16\n\n[replica a]\nlisten = 127.0.0.1:4000\n\n[replica b]\n\
         transport = local\n",
    )
    .unwrap();
    assert_eq!(topology.replicas[0].transport, TransportKind::Tcp);
    assert_eq!(topology.replicas[1].transport, TransportKind::Local);
}

//! `impir-server` command-line parsing, out of `main.rs` and unit-tested.
//!
//! Two entry shapes exist, and both end in the same place:
//!
//! * the classic flags (`--records`, `--backend`, …) **desugar** into a
//!   single-replica [`FleetTopology`] via [`topology_from_flags`];
//! * `--config FILE` parses a checked-in topology file directly.
//!
//! Either way, engine construction happens through
//! [`FleetTopology::build_engine`] and service construction through
//! [`crate::build_service`] — the flags are sugar, not a second code
//! path, so the two entry points cannot drift.

use std::collections::HashMap;

use impir_core::engine::DEFAULT_JOURNAL_BATCHES;
use impir_core::topology::{
    BackendSpec, FleetTopology, RebalanceMode, ReplicaSpec, ShardPolicy, TransportKind,
};
use impir_core::{PirError, ShardPlan};

/// The usage banner `impir-server --help` prints.
pub const USAGE: &str = "usage:
  impir-server [--listen ADDR] [--records N] [--record-bytes B] [--seed S]
               [--shards K | --autoshard declared|calibrated]
               [--backend pim|cpu] [--dpus D] [--clusters C] [--max-sessions N]
               [--journal-batches N] [--io-timeout-ms T]
               [--rebalance auto|off]
  impir-server --config FILE [--replica NAME] [--max-sessions N]
  impir-server --config FILE --router
  impir-server --config FILE --check

  --config FILE   serve a replica of the fleet described by a topology
                  file instead of the flag form (the flags above desugar
                  into the same FleetTopology; mixing them with --config
                  is an error)
  --replica NAME  which replica of the topology this process serves
                  (default: the first one)
  --router        run the front-tier router of the topology instead of a
                  replica: accept client sessions, spread them over the
                  fleet's replicas, probe health/lag and fail over
  --check         parse and validate the topology file, print a summary
                  and exit (for CI and deploy scripts)

  --journal-batches N  keep the last N applied update batches replayable so
                       a lagging replica catches up over the wire
                       (default 64; 0 disables the journal)
  --io-timeout-ms T    per-session socket read/write timeout (default 50)

  --rebalance M   M = auto  migrate records between shards live when the
                            measured per-shard scan skew of a query wave
                            exceeds the planner's threshold (bounded moves
                            between waves; an epoch step peers replay)
                  M = off   keep the construction-time layout (default)

  --shards K      manual uniform split into K shards (default 1)
  --autoshard M   capacity-aware planning: shard count and boundaries come
                  from the backend's capacity profile (per-cluster MRAM for
                  pim; host memory for cpu, which yields one shard).
                  M = declared   profile from config + the simulator's cost
                                 model
                  M = calibrated declared profile blended with measured
                                 probe scans
                  mutually exclusive with --shards";

/// The accepted flag names. A typo like `--record` or `--seeds` must fail
/// loudly: silently falling back to defaults would start a server whose
/// replica does not match its peers', and every client query would then
/// fail the geometry check.
pub const KNOWN_FLAGS: [&str; 17] = [
    "listen",
    "records",
    "record-bytes",
    "seed",
    "shards",
    "autoshard",
    "backend",
    "dpus",
    "clusters",
    "max-sessions",
    "journal-batches",
    "io-timeout-ms",
    "rebalance",
    "config",
    "replica",
    "router",
    "check",
];

/// Flags that take no value (their presence is the signal).
const BOOL_FLAGS: [&str; 2] = ["router", "check"];

/// The name the classic flag form gives its single desugared replica.
pub const FLAG_REPLICA_NAME: &str = "primary";

/// Parses `--flag value` / `--flag=value` pairs (and the valueless
/// `--router`/`--check` switches) into a map, rejecting unknown flags and
/// repeated ones.
///
/// # Errors
///
/// Returns a usage-style message for non-flag tokens, unknown flags, flags
/// missing their value and a flag given twice.
pub fn parse_options(args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut options = HashMap::new();
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let Some(spec) = flag.strip_prefix("--") else {
            return Err(format!("expected a --flag, found `{flag}`"));
        };
        // Both `--flag value` and `--flag=value` are accepted.
        let (name, inline_value) = match spec.split_once('=') {
            Some((name, value)) => (name, Some(value.to_string())),
            None => (spec, None),
        };
        if !KNOWN_FLAGS.contains(&name) {
            return Err(format!("unknown flag --{name}"));
        }
        let value = match inline_value {
            Some(value) => value,
            None if BOOL_FLAGS.contains(&name) => "true".to_string(),
            None => iter
                .next()
                .ok_or_else(|| format!("flag --{name} needs a value"))?
                .clone(),
        };
        if options.insert(name.to_string(), value).is_some() {
            return Err(format!("flag --{name} given twice"));
        }
    }
    Ok(options)
}

/// Looks up an integer flag with a default.
///
/// # Errors
///
/// Returns a usage-style message when the value does not parse.
pub fn get_u64(options: &HashMap<String, String>, key: &str, default: u64) -> Result<u64, String> {
    match options.get(key) {
        None => Ok(default),
        Some(value) => value
            .parse()
            .map_err(|_| format!("--{key} expects an integer, got `{value}`")),
    }
}

/// The session budget asked for on the command line (`--max-sessions 0`
/// and absence both mean "serve until killed"). Deliberately *not* part
/// of the topology: how long one process serves is operational, not fleet
/// shape.
///
/// # Errors
///
/// Returns a usage-style message when the value does not parse.
pub fn max_sessions_from_flags(options: &HashMap<String, String>) -> Result<Option<usize>, String> {
    Ok(match get_u64(options, "max-sessions", 0)? {
        0 => None,
        n => Some(n as usize),
    })
}

/// Rejects mixing `--config` with the classic engine flags: the file is
/// the single source of fleet shape, and a flag silently losing to it (or
/// silently overriding it) would be exactly the drift the topology layer
/// exists to kill.
///
/// # Errors
///
/// Returns a usage-style message naming the offending flag.
pub fn check_config_flag_mix(options: &HashMap<String, String>) -> Result<(), String> {
    if !options.contains_key("config") {
        for switch in ["replica", "router", "check"] {
            if options.contains_key(switch) {
                return Err(format!("--{switch} requires --config FILE"));
            }
        }
        return Ok(());
    }
    const CONFIG_COMPATIBLE: [&str; 5] = ["config", "replica", "router", "check", "max-sessions"];
    for flag in options.keys() {
        if !CONFIG_COMPATIBLE.contains(&flag.as_str()) {
            return Err(format!(
                "--{flag} cannot be combined with --config: the topology file decides the \
                 fleet shape"
            ));
        }
    }
    Ok(())
}

/// Desugars the classic flag form into a single-replica [`FleetTopology`]
/// (replica name [`FLAG_REPLICA_NAME`], TCP transport on `--listen`). A
/// flag-built and a file-built topology for the same deployment compare
/// equal — pinned by test.
///
/// # Errors
///
/// Returns a usage-style message for invalid or mutually exclusive flags
/// (`--autoshard` with `--shards`, zero shard counts or timeouts, unknown
/// backend or autoshard modes).
pub fn topology_from_flags(options: &HashMap<String, String>) -> Result<FleetTopology, String> {
    let listen = options
        .get("listen")
        .cloned()
        .unwrap_or_else(|| "127.0.0.1:0".to_string());
    let records = get_u64(options, "records", 4096)?;
    let record_bytes = get_u64(options, "record-bytes", 32)? as usize;
    let seed = get_u64(options, "seed", 42)?;
    let backend_name = options.get("backend").map(String::as_str).unwrap_or("cpu");
    let journal_batches =
        get_u64(options, "journal-batches", DEFAULT_JOURNAL_BATCHES as u64)? as usize;
    let io_timeout_ms = get_u64(options, "io-timeout-ms", 50)?;
    if io_timeout_ms == 0 {
        return Err("--io-timeout-ms must be at least 1".to_string());
    }
    let rebalance = match options.get("rebalance") {
        None => RebalanceMode::Off,
        Some(value) => RebalanceMode::parse(value)
            .ok_or_else(|| format!("--rebalance expects `auto` or `off`, got `{value}`"))?,
    };

    let sharding = match options.get("autoshard").map(String::as_str) {
        None => {
            let shards = get_u64(options, "shards", 1)? as usize;
            if shards == 0 {
                return Err("--shards must be at least 1".to_string());
            }
            ShardPolicy::Uniform(shards)
        }
        Some(mode) => {
            if options.contains_key("shards") {
                // The same validation class every other bad configuration
                // goes through, so scripted deployments get one error shape.
                return Err(PirError::Config {
                    reason: "--autoshard and --shards are mutually exclusive: --autoshard \
                             derives the shard count and boundaries from backend capacity, \
                             --shards sets a manual uniform split"
                        .to_string(),
                }
                .to_string());
            }
            match mode {
                "declared" => ShardPolicy::Declared,
                "calibrated" => ShardPolicy::Calibrated,
                other => {
                    return Err(format!(
                        "--autoshard expects `declared` or `calibrated`, got `{other}`"
                    ))
                }
            }
        }
    };

    let backend = match backend_name {
        "cpu" => BackendSpec::Cpu,
        "pim" => {
            let dpus = get_u64(options, "dpus", 8)? as usize;
            let clusters = get_u64(options, "clusters", 1)? as usize;
            if dpus == 0 || clusters == 0 {
                return Err("--dpus and --clusters must be at least 1".to_string());
            }
            BackendSpec::Pim { dpus, clusters }
        }
        other => return Err(format!("unknown backend `{other}` (expected pim or cpu)")),
    };
    if backend_name == "cpu" && (options.contains_key("dpus") || options.contains_key("clusters")) {
        return Err("--dpus and --clusters apply to the pim backend only".to_string());
    }

    let mut topology = FleetTopology::new(records, record_bytes, seed);
    topology.sharding = sharding;
    topology.journal_batches = journal_batches;
    topology.rebalance = rebalance;
    topology.io_timeout_ms = io_timeout_ms;
    topology.replicas.push(ReplicaSpec {
        name: FLAG_REPLICA_NAME.to_string(),
        transport: TransportKind::Tcp,
        listen: Some(listen),
        backend,
        sharding: None,
    });
    topology.validate().map_err(|e| e.to_string())?;
    Ok(topology)
}

/// One line describing an engine's realized shard layout for the startup
/// banner.
#[must_use]
pub fn describe_plan(plan: &ShardPlan, sharding: ShardPolicy) -> String {
    let mode = match sharding {
        ShardPolicy::Uniform(_) => "uniform",
        ShardPolicy::Declared => "autoshard declared",
        ShardPolicy::Calibrated => "autoshard calibrated",
    };
    format!(
        "{} shard(s) [{}] ({mode})",
        plan.shard_count(),
        plan.size_summary()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn accepts_both_flag_forms() {
        let separated = parse_options(&args(&["--records", "64", "--seed", "9"])).unwrap();
        let inline = parse_options(&args(&["--records=64", "--seed=9"])).unwrap();
        assert_eq!(separated, inline);
        assert_eq!(separated.get("records").map(String::as_str), Some("64"));
    }

    #[test]
    fn rejects_unknown_flags_and_bare_tokens() {
        let err = parse_options(&args(&["--recordz", "64"])).unwrap_err();
        assert!(err.contains("unknown flag --recordz"), "{err}");
        // Gone with the second session tier in PR 13; not kept as a no-op.
        let err = parse_options(&args(&["--session-tier", "events"])).unwrap_err();
        assert!(err.contains("unknown flag --session-tier"), "{err}");
        // Likewise the scan-kernel flag: retired, not a no-op.
        let err = parse_options(&args(&["--scan-kernel", "auto"])).unwrap_err();
        assert!(err.contains("unknown flag --scan-kernel"), "{err}");
        // The second value must not silently win.
        let err = parse_options(&args(&["--records", "4096", "--records=1024"])).unwrap_err();
        assert!(err.contains("flag --records given twice"), "{err}");
        let err = parse_options(&args(&["records"])).unwrap_err();
        assert!(err.contains("expected a --flag"), "{err}");
        let err = parse_options(&args(&["--records"])).unwrap_err();
        assert!(err.contains("needs a value"), "{err}");
    }

    #[test]
    fn boolean_switches_take_no_value() {
        let options = parse_options(&args(&["--config", "fleet.txt", "--check"])).unwrap();
        assert_eq!(options.get("check").map(String::as_str), Some("true"));
        assert_eq!(options.get("config").map(String::as_str), Some("fleet.txt"));
    }

    #[test]
    fn autoshard_and_shards_are_mutually_exclusive() {
        let options = parse_options(&args(&["--shards", "2", "--autoshard", "declared"])).unwrap();
        let err = topology_from_flags(&options).unwrap_err();
        assert!(err.contains("mutually exclusive"), "{err}");
    }

    #[test]
    fn flag_defaults_desugar_to_the_expected_topology() {
        let topology = topology_from_flags(&HashMap::new()).unwrap();
        let mut expected = FleetTopology::new(4096, 32, 42);
        expected
            .replicas
            .push(ReplicaSpec::tcp(FLAG_REPLICA_NAME, "127.0.0.1:0"));
        assert_eq!(topology, expected);
    }

    #[test]
    fn pim_flags_desugar_into_the_backend_spec() {
        let options = parse_options(&args(&[
            "--backend",
            "pim",
            "--dpus",
            "4",
            "--clusters",
            "2",
            "--listen",
            "127.0.0.1:7700",
        ]))
        .unwrap();
        let topology = topology_from_flags(&options).unwrap();
        assert_eq!(
            topology.replicas[0].backend,
            BackendSpec::Pim {
                dpus: 4,
                clusters: 2
            }
        );
        assert_eq!(
            topology.replicas[0].listen.as_deref(),
            Some("127.0.0.1:7700")
        );
    }

    #[test]
    fn rebalance_flag_desugars_into_the_topology() {
        let topology = topology_from_flags(&HashMap::new()).unwrap();
        assert_eq!(topology.rebalance, RebalanceMode::Off);
        let options = parse_options(&args(&["--rebalance", "auto"])).unwrap();
        let topology = topology_from_flags(&options).unwrap();
        assert_eq!(topology.rebalance, RebalanceMode::Auto);
        let options = parse_options(&args(&["--rebalance", "sometimes"])).unwrap();
        assert!(topology_from_flags(&options)
            .unwrap_err()
            .contains("--rebalance expects"));
    }

    #[test]
    fn rejects_bad_flag_values() {
        let options = parse_options(&args(&["--shards", "0"])).unwrap();
        assert!(topology_from_flags(&options)
            .unwrap_err()
            .contains("--shards must be at least 1"));
        let options = parse_options(&args(&["--io-timeout-ms", "0"])).unwrap();
        assert!(topology_from_flags(&options)
            .unwrap_err()
            .contains("--io-timeout-ms must be at least 1"));
        let options = parse_options(&args(&["--backend", "gpu"])).unwrap();
        assert!(topology_from_flags(&options)
            .unwrap_err()
            .contains("unknown backend"));
    }

    #[test]
    fn config_flag_mixing_is_rejected() {
        let options = parse_options(&args(&["--config", "f", "--records", "64"])).unwrap();
        assert!(check_config_flag_mix(&options)
            .unwrap_err()
            .contains("cannot be combined with --config"));
        let options = parse_options(&args(&["--router"])).unwrap();
        assert!(check_config_flag_mix(&options)
            .unwrap_err()
            .contains("requires --config"));
        let options = parse_options(&args(&[
            "--config",
            "f",
            "--replica",
            "a",
            "--max-sessions",
            "1",
        ]))
        .unwrap();
        check_config_flag_mix(&options).expect("config-compatible flags pass");
    }
}

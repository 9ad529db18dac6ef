//! What the benchmark runs and what it reports: the workload table and the
//! metric names. `BENCHMARK.json` at the repository root states the same
//! names (with units, directions and bounds); a test pins the two equal.

use crate::json::Json;

/// The benchmark's definition, compiled in so `compare` and the tests read
/// the same bounds the driver does.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// How a workload drives its deployment. All loops are closed: a PIR client
/// blocks on its replies before it sends again.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Shape {
    /// One client; an op is one `TwoServerPir::query_batch` of `batch`
    /// indices with fresh keys. With `update`, every `reads` query ops are
    /// followed by one `apply_updates` of `records` seeded records.
    Single {
        batch: usize,
        update: Option<UpdateCycle>,
    },
    /// `sessions` logical sessions multiplexed (`Frame::Mux`) over one
    /// connection per replica, each closed-loop with one single-index
    /// request in flight; shares come from a seeded pool of `pool`
    /// pre-generated pairs, so client keygen is out of the loop.
    FanIn { sessions: usize, pool: usize },
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UpdateCycle {
    pub reads: usize,
    pub records: usize,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub fleet_file: &'static str,
    /// Contents of the checked-in fleet file under `workloads/`.
    pub fleet: &'static str,
    pub shape: Shape,
    /// Percentile `query_tail_ms` reports: the highest of p99/p90 that
    /// keeps ten samples beyond it at the workload's design rate. Fixed per
    /// workload so the metric means the same thing in every run.
    pub tail: f64,
    /// Ops run, untimed, between set-up and the measured window: about a
    /// second at the workload's rate. A fresh deployment runs slower at
    /// first — `lookup-wide-local` takes ≈9.4 ms per op for its first
    /// ≈100 ops and 5.4 ms after — and a serving replica is not fresh.
    pub settle_ops: u64,
}

macro_rules! fleet {
    ($file:literal) => {
        ($file, include_str!(concat!("../workloads/", $file)))
    };
}

const SMALL_TCP: (&str, &str) = fleet!("small-cpu-tcp.fleet");
const LARGE_LOCAL: (&str, &str) = fleet!("large-cpu-local.fleet");
const WIDE_LOCAL: (&str, &str) = fleet!("wide-cpu-local.fleet");
const PIM_TCP: (&str, &str) = fleet!("pim-tcp.fleet");

/// The five workloads. There are no per-workload tuning flags: a workload
/// is its row here plus its fleet file. The ones `BENCHMARK.json` lists are
/// gated (see [`gated`]); `lookup-wide-local` is not.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "lookup-small-tcp",
        fleet_file: SMALL_TCP.0,
        fleet: SMALL_TCP.1,
        shape: Shape::Single {
            batch: 1,
            update: None,
        },
        tail: 0.99,
        settle_ops: 500,
    },
    Workload {
        name: "batch-large-local",
        fleet_file: LARGE_LOCAL.0,
        fleet: LARGE_LOCAL.1,
        shape: Shape::Single {
            batch: 4,
            update: None,
        },
        tail: 0.90,
        settle_ops: 10,
    },
    Workload {
        name: "lookup-wide-local",
        fleet_file: WIDE_LOCAL.0,
        fleet: WIDE_LOCAL.1,
        shape: Shape::Single {
            batch: 1,
            update: None,
        },
        tail: 0.99,
        settle_ops: 250,
    },
    Workload {
        name: "fanin-small-mux",
        fleet_file: SMALL_TCP.0,
        fleet: SMALL_TCP.1,
        shape: Shape::FanIn {
            sessions: 32,
            pool: 256,
        },
        tail: 0.99,
        settle_ops: 2000,
    },
    Workload {
        name: "update-mix-pim-tcp",
        fleet_file: PIM_TCP.0,
        fleet: PIM_TCP.1,
        shape: Shape::Single {
            batch: 4,
            update: Some(UpdateCycle {
                reads: 4,
                records: 32,
            }),
        },
        tail: 0.90,
        settle_ops: 40,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The workloads `BENCHMARK.json` lists, in its order: the ones the driver
/// runs and holds to the bounds. A workload left out of that list still runs
/// by name, but its numbers are not steady enough on a shared host to gate a
/// change (see the README on `lookup-wide-local`).
pub fn gated() -> Result<Vec<&'static Workload>, String> {
    let doc = Json::parse(BENCHMARK_JSON)?;
    doc.get("workloads")
        .ok_or("BENCHMARK.json has no workloads list")?
        .as_array()
        .iter()
        .map(|w| {
            let name = w
                .get("name")
                .and_then(Json::as_str)
                .ok_or("workload entry without `name`")?;
            workload(name).ok_or(format!("BENCHMARK.json lists unknown workload `{name}`"))
        })
        .collect()
}

/// End-to-end metrics, reported by an untraced run: name and unit.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("queries_per_s", "1/s"),
    ("query_p50_ms", "ms"),
    ("query_tail_ms", "ms"),
    ("wire_bytes_per_query", "B"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, reported by a traced run: name and unit. The prefix
/// is the module the number belongs to; a metric that does not apply to a
/// workload reads 0 there.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("client.keygen_us", "us"),
    ("client.reconstruct_us", "us"),
    ("crypto.prg_blocks_per_s", "1/s"),
    ("dpf.eval_full_ms", "ms"),
    ("dpf.leaves_per_s", "1/s"),
    ("dpf.prg_ceiling_ratio", "ratio"),
    ("wire.encode_query_us", "us"),
    ("wire.decode_response_us", "us"),
    ("wire.request_bytes", "B"),
    ("wire.response_bytes", "B"),
    ("transport.roundtrip_ms", "ms"),
    ("transport.wait_ms", "ms"),
    ("transport.info_rtt_us", "us"),
    ("transport.loopback_rtt_us", "us"),
    ("transport.loopback_ceiling_ratio", "ratio"),
    ("server.shed_count", "count"),
    ("server.peak_threads", "count"),
    ("router.hop_ms", "ms"),
    ("engine.execute_batch_ms", "ms"),
    ("engine.overhead_ms", "ms"),
    ("engine.apply_updates_ms", "ms"),
    ("backend.eval_ms", "ms"),
    ("backend.copy_to_pim_ms", "ms"),
    ("backend.dpxor_ms", "ms"),
    ("backend.copy_from_pim_ms", "ms"),
    ("backend.aggregate_ms", "ms"),
    ("pim.copy_to_modelled_us", "us"),
    ("pim.dpxor_modelled_us", "us"),
    ("pim.copy_from_modelled_us", "us"),
    ("pim.modelled_ms_per_query", "ms"),
    ("dpxor.scan_ms", "ms"),
    ("dpxor.scan_gbps", "GB/s"),
    ("dpxor.read_ceiling_gbps", "GB/s"),
    ("dpxor.roofline_ratio", "ratio"),
    ("update.p50_ms", "ms"),
    ("update.p90_ms", "ms"),
    ("update.bytes_per_record", "B"),
    ("ledger.eval_share_pct", "%"),
    ("ledger.dpxor_share_pct", "%"),
    ("ledger.transport_share_pct", "%"),
    ("ledger.server_overhead_share_pct", "%"),
    ("harness.ledger_residual_pct", "%"),
    ("harness.trace_overhead_pct", "%"),
];

/// One end-to-end metric's entry in `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    pub bound: f64,
}

/// The `end_to_end` entries of the compiled-in `BENCHMARK.json`.
pub fn end_to_end_bounds() -> Result<Vec<Bound>, String> {
    let doc = Json::parse(BENCHMARK_JSON)?;
    doc.get("end_to_end")
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .as_array()
        .iter()
        .map(|m| {
            let text = |key: &str| {
                m.get(key)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or(format!("end_to_end entry without `{key}`"))
            };
            Ok(Bound {
                name: text("name")?,
                unit: text("unit")?,
                higher_is_better: text("better")? == "higher",
                bound: m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("end_to_end entry without `bound`")?,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use impir_core::topology::FleetTopology;

    fn names_and_units(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .expect("list present")
            .as_array()
            .iter()
            .map(|m| {
                let text = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
                (text("name"), text("unit"))
            })
            .collect()
    }

    fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn names_emitted_equal_names_in_benchmark_json() {
        let doc = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        // Every listed workload is one of ours, in table order; the only
        // one of ours left unlisted is the DRAM-bound one.
        let listed: Vec<&str> = gated()
            .expect("listed workloads resolve")
            .iter()
            .map(|w| w.name)
            .collect();
        let ours: Vec<&str> = WORKLOADS
            .iter()
            .map(|w| w.name)
            .filter(|&name| name != "lookup-wide-local")
            .collect();
        assert_eq!(listed, ours);
        assert_eq!(names_and_units(&doc, "end_to_end"), owned(&END_TO_END));
        assert_eq!(names_and_units(&doc, "per_layer"), owned(&PER_LAYER));
        let bounds = end_to_end_bounds().expect("bounds parse");
        assert!(bounds.iter().all(|b| b.bound > 0.0 && b.bound <= 0.25));
        let setup = bounds
            .iter()
            .find(|b| b.name == "setup_s")
            .expect("setup_s");
        assert!(!setup.higher_is_better && setup.unit == "s");
    }

    #[test]
    fn every_fleet_file_parses_validates_and_opens_with_its_reason() {
        for w in &WORKLOADS {
            let topology = FleetTopology::parse(w.fleet)
                .unwrap_or_else(|err| panic!("{}: {err}", w.fleet_file));
            topology.validate().expect("valid fleet");
            assert!(topology.replicas.len() >= 2, "{}", w.fleet_file);
            assert!(
                w.fleet.starts_with('#') && w.fleet.contains("Why it exists"),
                "{} must open with a comment stating why the workload exists",
                w.fleet_file
            );
        }
    }

    #[test]
    fn unknown_workload_names_are_rejected() {
        assert!(workload("lookup-small-tcp").is_some());
        assert!(workload("lookup-small").is_none());
    }
}

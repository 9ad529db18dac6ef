//! The closed-loop drivers: what one run of a workload does.
//!
//! A single-client workload runs through a [`Runner`] — either the product
//! path itself ([`SchemeRunner`], `TwoServerPir::query_batch`, used for the
//! end-to-end numbers) or a replay of that function's own steps with a span
//! at each boundary ([`ReplayRunner`], used for the traced run). The fan-in
//! workload pipelines `Frame::Mux` requests over one raw connection per
//! replica; tracing only adds spans to the same loop.

use std::net::TcpStream;
use std::time::{Duration, Instant};

use impir_core::scheme::TwoServerPir;
use impir_core::server::phases::{PhaseBreakdown, PhaseTime};
use impir_core::transport::{PirTransport, TransportBatch};
use impir_core::wire::{self, Frame, WIRE_VERSION};
use impir_core::{Database, PirClient, PirError, QueryShare, ServerResponse};

use crate::deploy::{proc_status, Deployment, Seeded};
use crate::spec::{Shape, UpdateCycle};
use crate::trace::{Span, Tracer};

/// How long a run measures: a wall-clock window, or an op count (the
/// miniatures the tests run).
#[derive(Debug, Clone, Copy)]
pub enum Window {
    Time(Duration),
    Ops(u64),
}

impl Window {
    /// Whether another op may start, `elapsed` into the run with
    /// `attempted` ops started so far.
    fn is_open(self, elapsed: Duration, attempted: u64) -> bool {
        match self {
            Window::Time(length) => elapsed < length,
            Window::Ops(ops) => attempted < ops,
        }
    }
}

/// Everything a run observed. Times are per op; the phase and transport
/// sums are over both replicas' batches (`leg_batches` of them, answering
/// `leg_queries` shares).
#[derive(Debug, Default)]
pub struct RunStats {
    pub attempted: u64,
    pub failed: u64,
    /// Ops whose reconstructed bytes differed from the oracle (also counted
    /// in `failed`); any makes the run incorrect.
    pub wrong: u64,
    /// `Overloaded` refusals (also counted in `failed`).
    pub shed: u64,
    pub verified_records: u64,
    pub elapsed_s: f64,
    pub query_ms: Vec<f64>,
    pub update_ms: Vec<f64>,
    pub query_wire_bytes: u64,
    pub update_wire_bytes: u64,
    pub updated_records: u64,
    pub phases: PhaseBreakdown,
    pub leg_batches: u64,
    pub leg_queries: u64,
    pub roundtrip_s: f64,
    pub server_wall_s: f64,
    pub keygen_us: Vec<f64>,
    pub reconstruct_us: Vec<f64>,
    pub peak_threads: f64,
}

impl RunStats {
    fn add_leg(&mut self, shares: usize, wall_s: f64, server_s: f64, phases: &PhaseBreakdown) {
        self.phases.merge(phases);
        self.leg_batches += 1;
        self.leg_queries += shares as u64;
        self.roundtrip_s += wall_s;
        self.server_wall_s += server_s;
    }

    fn fail(&mut self, err: &PirError) {
        self.failed += 1;
        if matches!(err, PirError::Overloaded { .. }) {
            self.shed += 1;
        }
    }
}

type QueryOutcome = (Vec<Vec<u8>>, TransportBatch, TransportBatch);

/// One client's view of the deployment: a query op and an update op.
pub trait Runner {
    fn query(&mut self, indices: &[u64]) -> Result<QueryOutcome, PirError>;
    fn update(&mut self, updates: &[(u64, Vec<u8>)]) -> Result<(), PirError>;
}

/// The product path, untouched.
pub struct SchemeRunner(pub TwoServerPir);

impl Runner for SchemeRunner {
    fn query(&mut self, indices: &[u64]) -> Result<QueryOutcome, PirError> {
        self.0.query_batch(indices)
    }

    fn update(&mut self, updates: &[(u64, Vec<u8>)]) -> Result<(), PirError> {
        self.0.apply_updates(updates).map(|_| ())
    }
}

/// `TwoServerPir::query_batch`'s own steps — `generate_batch`, both
/// `PirTransport::query_batch` concurrently, epoch check, `reconstruct` —
/// with a span at each boundary. Updates replay `apply_updates`' fast path:
/// two epoch probes, then server 0, then server 1.
pub struct ReplayRunner {
    client: PirClient,
    legs: [Box<dyn PirTransport>; 2],
    tracer: Tracer,
    keygen_us: Vec<f64>,
    reconstruct_us: Vec<f64>,
    next_op: u64,
}

impl ReplayRunner {
    pub fn new(deployment: &Deployment, seed: u64) -> Result<Self, PirError> {
        Ok(ReplayRunner {
            client: deployment.client(seed)?,
            legs: [deployment.connect(0)?, deployment.connect(1)?],
            tracer: Tracer::new(),
            keygen_us: Vec::new(),
            reconstruct_us: Vec::new(),
            next_op: 0,
        })
    }

    fn open_op(&mut self, name: &'static str, start: Instant) -> (u64, u32) {
        let op = self.next_op;
        self.next_op += 1;
        let at = self.tracer.micros(start);
        let id = self.tracer.record(span(name, op, None, at, at));
        (op, id)
    }

    fn step(&mut self, name: &'static str, op: u64, parent: u32, start: Instant) -> f64 {
        let (from, to) = (
            self.tracer.micros(start),
            self.tracer.micros(Instant::now()),
        );
        self.tracer.record(span(name, op, Some(parent), from, to));
        to - from
    }
}

fn span(name: &'static str, op: u64, parent: Option<u32>, start_us: f64, end_us: f64) -> Span {
    Span {
        id: 0,
        parent,
        op,
        name,
        start_us,
        end_us,
        reported: false,
        critical: true,
    }
}

/// Records one replica leg: the `transport` span the harness observed and,
/// inside it, the `server` span and its phases as the reply reported them.
/// The server's interval is not observable from outside, so it is centred
/// in the leg; phases that sum past the server's wall time (they are totals
/// over a batch's queries) are scaled to fit.
#[allow(clippy::too_many_arguments)]
fn record_leg(
    tracer: &mut Tracer,
    op: u64,
    parent: u32,
    start_us: f64,
    end_us: f64,
    server_wall_s: f64,
    phases: &PhaseBreakdown,
    critical: bool,
) {
    let leg = tracer.record(Span {
        critical,
        ..span("transport", op, Some(parent), start_us, end_us)
    });
    let server_us = (server_wall_s * 1e6).min(end_us - start_us);
    let server_start = start_us + (end_us - start_us - server_us) / 2.0;
    let server = tracer.record(Span {
        critical,
        reported: true,
        ..span(
            "server",
            op,
            Some(leg),
            server_start,
            server_start + server_us,
        )
    });
    let phase_total_us = phases.total_wall_seconds() * 1e6;
    let scale = if phase_total_us > server_us && phase_total_us > 0.0 {
        server_us / phase_total_us
    } else {
        1.0
    };
    let mut at = server_start;
    for (name, phase) in phase_list(phases) {
        let len = phase.wall_seconds * 1e6 * scale;
        if len > 0.0 {
            tracer.record(Span {
                critical,
                reported: true,
                ..span(name, op, Some(server), at, at + len)
            });
            at += len;
        }
    }
}

pub fn phase_list(phases: &PhaseBreakdown) -> [(&'static str, PhaseTime); 5] {
    [
        ("eval", phases.eval),
        ("copy_to_pim", phases.copy_to_pim),
        ("dpxor", phases.dpxor),
        ("copy_from_pim", phases.copy_from_pim),
        ("aggregate", phases.aggregate),
    ]
}

impl Runner for ReplayRunner {
    fn query(&mut self, indices: &[u64]) -> Result<QueryOutcome, PirError> {
        let started = Instant::now();
        let (op, op_id) = self.open_op("query", started);

        let (shares_0, shares_1) = self.client.generate_batch(indices)?;
        let keygen = self.step("keygen", op, op_id, started);
        self.keygen_us.push(keygen);

        let timed = |leg: &mut dyn PirTransport, shares: &[QueryShare]| {
            let start = Instant::now();
            let outcome = leg.query_batch(shares);
            (start, Instant::now(), outcome)
        };
        let [leg_0, leg_1] = &mut self.legs;
        let (first, second) = std::thread::scope(|scope| {
            let first = scope.spawn(|| timed(leg_0.as_mut(), &shares_0));
            let second = timed(leg_1.as_mut(), &shares_1);
            (first.join().expect("leg 0 thread panicked"), second)
        });
        let last_end = first.1.max(second.1);
        let mut batches = Vec::with_capacity(2);
        for (start, end, outcome) in [first, second] {
            let batch = outcome?;
            let (from, to) = (self.tracer.micros(start), self.tracer.micros(end));
            record_leg(
                &mut self.tracer,
                op,
                op_id,
                from,
                to,
                batch.server_wall_seconds,
                &batch.phase_totals,
                end == last_end,
            );
            batches.push(batch);
        }
        let batch_1 = batches.pop().expect("two legs");
        let batch_0 = batches.pop().expect("two legs");
        if batch_0.epoch != batch_1.epoch {
            return Err(PirError::Protocol {
                reason: format!(
                    "replicas answered at epochs {} and {} with a single writer",
                    batch_0.epoch, batch_1.epoch
                ),
            });
        }

        let reconstruct_started = Instant::now();
        let records = batch_0
            .responses
            .iter()
            .zip(&batch_1.responses)
            .map(|(a, b)| self.client.reconstruct(a, b))
            .collect::<Result<Vec<_>, _>>()?;
        let reconstruct = self.step("reconstruct", op, op_id, reconstruct_started);
        self.reconstruct_us.push(reconstruct);
        let done = self.tracer.micros(Instant::now());
        self.tracer.close(op_id, done);
        Ok((records, batch_0, batch_1))
    }

    fn update(&mut self, updates: &[(u64, Vec<u8>)]) -> Result<(), PirError> {
        let started = Instant::now();
        let (op, op_id) = self.open_op("update", started);
        let before = (
            self.legs[0].epoch_info()?.current_epoch,
            self.legs[1].epoch_info()?.current_epoch,
        );
        self.step("update.probe", op, op_id, started);
        let mut epochs = [0; 2];
        for (leg, epoch) in self.legs.iter_mut().zip(&mut epochs) {
            let apply_started = Instant::now();
            *epoch = leg.apply_updates(updates)?.epoch;
            let (from, to) = (
                self.tracer.micros(apply_started),
                self.tracer.micros(Instant::now()),
            );
            self.tracer
                .record(span("update.apply", op, Some(op_id), from, to));
        }
        let done = self.tracer.micros(Instant::now());
        self.tracer.close(op_id, done);
        if before.0 != before.1 || epochs[0] != epochs[1] {
            return Err(PirError::Protocol {
                reason: format!(
                    "replicas out of lockstep around an update: {before:?} → {epochs:?}"
                ),
            });
        }
        Ok(())
    }
}

/// Samples the process's thread count at most every 100 ms.
struct ThreadSampler {
    enabled: bool,
    last: Instant,
    peak: f64,
}

impl ThreadSampler {
    fn new(enabled: bool) -> Self {
        ThreadSampler {
            enabled,
            last: Instant::now(),
            peak: if enabled { proc_status("Threads") } else { 0.0 },
        }
    }

    fn tick(&mut self, now: Instant) {
        if self.enabled && now.duration_since(self.last) >= Duration::from_millis(100) {
            self.last = now;
            self.peak = self.peak.max(proc_status("Threads"));
        }
    }
}

/// Drives one client through `window`: query ops of `batch` seeded indices
/// and, with an update cycle, one seeded update after every `reads` of
/// them. Every reconstructed record is compared with `oracle`, which
/// mirrors the updates.
pub fn run_single(
    runner: &mut dyn Runner,
    oracle: &mut Database,
    batch: usize,
    update: Option<UpdateCycle>,
    rng: &mut Seeded,
    window: Window,
    sample_threads: bool,
) -> RunStats {
    let mut stats = RunStats::default();
    let mut threads = ThreadSampler::new(sample_threads);
    let records = oracle.num_records();
    let record_bytes = oracle.record_size();
    let started = Instant::now();
    let mut reads_since_update = 0;
    loop {
        let now = Instant::now();
        if !window.is_open(now.duration_since(started), stats.attempted) {
            break;
        }
        threads.tick(now);
        stats.attempted += 1;

        if let Some(cycle) = update.filter(|cycle| reads_since_update == cycle.reads) {
            reads_since_update = 0;
            let updates: Vec<(u64, Vec<u8>)> = (0..cycle.records)
                .map(|_| (rng.below(records), rng.bytes(record_bytes)))
                .collect();
            let op_started = Instant::now();
            match runner.update(&updates) {
                Ok(()) => {
                    stats
                        .update_ms
                        .push(op_started.elapsed().as_secs_f64() * 1e3);
                    for (index, bytes) in &updates {
                        oracle
                            .set_record(*index, bytes)
                            .expect("seeded update fits");
                    }
                    stats.update_wire_bytes += 2 * wire::update_batch_frame_bytes(&updates) as u64;
                    stats.updated_records += updates.len() as u64;
                }
                Err(err) => stats.fail(&err),
            }
            continue;
        }

        reads_since_update += 1;
        let indices: Vec<u64> = (0..batch).map(|_| rng.below(records)).collect();
        let op_started = Instant::now();
        match runner.query(&indices) {
            Ok((got, batch_0, batch_1)) => {
                stats
                    .query_ms
                    .push(op_started.elapsed().as_secs_f64() * 1e3);
                let right = got.len() == indices.len()
                    && got
                        .iter()
                        .zip(&indices)
                        .all(|(r, &i)| r == oracle.record(i));
                if right {
                    stats.verified_records += indices.len() as u64;
                } else {
                    stats.failed += 1;
                    stats.wrong += 1;
                }
                for leg in [&batch_0, &batch_1] {
                    stats.query_wire_bytes += leg.upload_bytes + leg.download_bytes;
                    stats.add_leg(
                        indices.len(),
                        leg.wall_seconds,
                        leg.server_wall_seconds,
                        &leg.phase_totals,
                    );
                }
            }
            Err(err) => stats.fail(&err),
        }
    }
    stats.elapsed_s = started.elapsed().as_secs_f64();
    stats.peak_threads = threads.peak;
    stats
}

/// One pre-generated query: the index and its two shares.
pub struct PooledQuery {
    pub index: u64,
    pub shares: [QueryShare; 2],
}

pub fn share_pool(
    client: &mut PirClient,
    rng: &mut Seeded,
    size: usize,
) -> Result<Vec<PooledQuery>, PirError> {
    (0..size)
        .map(|_| {
            let index = rng.below(client.num_records());
            let (a, b) = client.generate_query(index)?;
            Ok(PooledQuery {
                index,
                shares: [a, b],
            })
        })
        .collect()
}

/// One raw multiplexed connection to a replica: the connection-level
/// handshake done, ready for `Frame::Mux` traffic.
pub struct MuxLink {
    stream: TcpStream,
    in_flight: usize,
}

impl MuxLink {
    pub fn open(addr: &str) -> Result<Self, PirError> {
        let io = |what: &str, err: std::io::Error| PirError::Protocol {
            reason: format!("{what} {addr}: {err}"),
        };
        let mut stream = TcpStream::connect(addr).map_err(|e| io("connecting to", e))?;
        stream.set_nodelay(true).map_err(|e| io("configuring", e))?;
        // A hung replica must fail the run, not hang it.
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .map_err(|e| io("configuring", e))?;
        wire::write_frame(
            &mut stream,
            &Frame::Hello {
                version: WIRE_VERSION,
            },
        )?;
        match wire::read_frame(&mut stream)?.0 {
            Frame::HelloAck { version, .. } if version == WIRE_VERSION => Ok(MuxLink {
                stream,
                in_flight: 0,
            }),
            other => Err(PirError::Protocol {
                reason: format!("expected a HelloAck from {addr}, got {}", other.name()),
            }),
        }
    }

    pub fn close(mut self) {
        let _ = wire::write_frame(&mut self.stream, &Frame::Goodbye);
    }
}

struct LegReply {
    at: Instant,
    /// `None` when the replica refused or failed the request.
    answer: Option<Answer>,
}

/// What one replica's `ResponseBatch` carried for a single-share request.
struct Answer {
    epoch: u64,
    server_wall_s: f64,
    phases: PhaseBreakdown,
    response: ServerResponse,
}

struct Session {
    query: usize,
    sent: Instant,
    replies: [Option<LegReply>; 2],
}

/// Drives `sessions` multiplexed sessions over `links` (one per replica),
/// each closed-loop: a session's next request leaves only after both
/// replicas answered its previous one. One thread reads whichever link has
/// more requests in flight — every op puts one request on each link, so
/// that link always has a reply coming and the loop cannot block on an idle
/// socket.
pub fn run_fanin(
    links: &mut [MuxLink; 2],
    client: &PirClient,
    pool: &[PooledQuery],
    oracle: &Database,
    sessions: usize,
    window: Window,
    mut tracer: Option<&mut Tracer>,
) -> Result<RunStats, PirError> {
    let mut stats = RunStats::default();
    let mut threads = ThreadSampler::new(tracer.is_some());
    let mut next_query = 0;
    let started = Instant::now();
    let mut send = |links: &mut [MuxLink; 2], stats: &mut RunStats, id: usize| {
        let query = next_query % pool.len();
        next_query += 1;
        stats.attempted += 1;
        let sent = Instant::now();
        for (link, share) in links.iter_mut().zip(&pool[query].shares) {
            let frame = Frame::Mux {
                // Session id 0 is the connection's root session.
                session: id as u32 + 1,
                frame: Box::new(Frame::QueryBatch {
                    shares: vec![share.clone()],
                }),
            };
            stats.query_wire_bytes += wire::write_frame(&mut link.stream, &frame)? as u64;
            link.in_flight += 1;
        }
        Ok::<Session, PirError>(Session {
            query,
            sent,
            replies: [None, None],
        })
    };

    let mut table: Vec<Session> = Vec::with_capacity(sessions);
    for id in 0..sessions {
        table.push(send(links, &mut stats, id)?);
    }
    while links[0].in_flight + links[1].in_flight > 0 {
        let leg = usize::from(links[1].in_flight > links[0].in_flight);
        let (frame, taken) = wire::read_frame(&mut links[leg].stream)?;
        let at = Instant::now();
        links[leg].in_flight -= 1;
        stats.query_wire_bytes += taken as u64;
        let Frame::Mux { session, frame } = frame else {
            return Err(PirError::Protocol {
                reason: format!("unmuxed {} frame on a multiplexed link", frame.name()),
            });
        };
        let id = (session as usize).wrapping_sub(1);
        let Some(state) = table.get_mut(id) else {
            return Err(PirError::Protocol {
                reason: format!("reply for unknown session {session}"),
            });
        };
        let answer = match *frame {
            Frame::ResponseBatch {
                epoch,
                wall_seconds,
                phases,
                mut responses,
            } if responses.len() == 1 => {
                stats.add_leg(
                    1,
                    at.duration_since(state.sent).as_secs_f64(),
                    wall_seconds,
                    &phases,
                );
                Some(Answer {
                    epoch,
                    server_wall_s: wall_seconds,
                    phases,
                    response: responses.remove(0),
                })
            }
            Frame::Overloaded { .. } => {
                stats.shed += 1;
                None
            }
            _ => None,
        };
        state.replies[leg] = Some(LegReply { at, answer });
        let [Some(first), Some(second)] = &state.replies else {
            continue;
        };

        // Both replicas answered: the session's op is complete.
        let done = first.at.max(second.at);
        let record = match (&first.answer, &second.answer) {
            (Some(a), Some(b)) if a.epoch == b.epoch => {
                client.reconstruct(&a.response, &b.response).ok()
            }
            _ => None,
        };
        match record {
            Some(bytes) if bytes == oracle.record(pool[state.query].index) => {
                stats.verified_records += 1;
                stats
                    .query_ms
                    .push(done.duration_since(state.sent).as_secs_f64() * 1e3);
            }
            Some(_) => {
                stats.failed += 1;
                stats.wrong += 1;
            }
            None => stats.failed += 1,
        }
        if let Some(tracer) = tracer.as_deref_mut() {
            let op = stats.verified_records + stats.failed;
            let (from, to) = (tracer.micros(state.sent), tracer.micros(done));
            let op_id = tracer.record(span("query", op, None, from, to));
            for reply in [first, second] {
                if let Some(answer) = &reply.answer {
                    let leg_end = tracer.micros(reply.at);
                    record_leg(
                        tracer,
                        op,
                        op_id,
                        from,
                        leg_end,
                        answer.server_wall_s,
                        &answer.phases,
                        reply.at == done,
                    );
                }
            }
        }
        threads.tick(at);
        if window.is_open(at.duration_since(started), stats.attempted) {
            table[id] = send(links, &mut stats, id)?;
        }
    }
    stats.elapsed_s = started.elapsed().as_secs_f64();
    stats.peak_threads = threads.peak;
    Ok(stats)
}

/// The client side of a deployment, connected and ready to measure: the
/// one handle `main` drives whatever the workload's shape.
pub struct Driver {
    kind: Kind,
    /// Spans of the fan-in loop (a replaying single client owns its own).
    tracer: Option<Tracer>,
}

enum Kind {
    Scheme {
        runner: SchemeRunner,
        batch: usize,
        update: Option<UpdateCycle>,
    },
    Replay {
        runner: ReplayRunner,
        batch: usize,
        update: Option<UpdateCycle>,
    },
    FanIn {
        links: [MuxLink; 2],
        client: PirClient,
        pool: Vec<PooledQuery>,
        sessions: usize,
    },
}

/// Query ops run before measuring: the first pays the lazy set-up (the scan
/// kernel's dispatch probe, first touch of the database), the rest run warm.
const WARMUP_OPS: u64 = 3;

impl Driver {
    /// Connects the client side of `deployment` for `shape` and warms it
    /// up. Untraced, a single client runs `TwoServerPir` itself; traced, it
    /// replays the scheme's steps with spans. The fan-in loop is the same
    /// either way and only records spans when traced.
    pub fn connect(
        deployment: &mut Deployment,
        shape: Shape,
        seed: u64,
        rng: &mut Seeded,
        traced: bool,
    ) -> Result<Self, PirError> {
        let kind = match shape {
            Shape::Single { batch, update } if traced => Kind::Replay {
                runner: ReplayRunner::new(deployment, seed)?,
                batch,
                update,
            },
            Shape::Single { batch, update } => Kind::Scheme {
                runner: SchemeRunner(deployment.scheme(seed)?),
                batch,
                update,
            },
            Shape::FanIn { sessions, pool } => {
                let mut client = deployment.client(seed)?;
                let pool = share_pool(&mut client, rng, pool)?;
                let link = |replica: usize| {
                    let spec = &deployment.topology.replicas[replica];
                    let addr = spec.listen.as_deref().ok_or_else(|| PirError::Config {
                        reason: "the fan-in workload needs tcp replicas".to_string(),
                    })?;
                    MuxLink::open(addr)
                };
                Kind::FanIn {
                    links: [link(0)?, link(1)?],
                    client,
                    pool,
                    sessions,
                }
            }
        };
        let mut driver = Driver { kind, tracer: None };
        let warm_up_ops = match &driver.kind {
            Kind::FanIn { sessions, .. } => 2 * *sessions as u64,
            Kind::Scheme { update, .. } | Kind::Replay { update, .. } => {
                WARMUP_OPS + u64::from(update.is_some())
            }
        };
        let warm_up = driver.run(&mut deployment.oracle, rng, Window::Ops(warm_up_ops))?;
        if warm_up.failed > 0 {
            return Err(PirError::Protocol {
                reason: format!(
                    "{} of {} warm-up ops failed",
                    warm_up.failed, warm_up.attempted
                ),
            });
        }
        driver.tracer = (traced && matches!(driver.kind, Kind::FanIn { .. })).then(Tracer::new);
        Ok(driver)
    }

    /// Forgets the spans recorded so far: the trace starts with the
    /// measured window, not with warm-up.
    pub fn reset_trace(&mut self) {
        if let Kind::Replay { runner, .. } = &mut self.kind {
            runner.tracer = Tracer::new();
        }
        if let Some(tracer) = &mut self.tracer {
            *tracer = Tracer::new();
        }
    }

    pub fn run(
        &mut self,
        oracle: &mut Database,
        rng: &mut Seeded,
        window: Window,
    ) -> Result<RunStats, PirError> {
        match &mut self.kind {
            Kind::Scheme {
                runner,
                batch,
                update,
            } => Ok(run_single(
                runner, oracle, *batch, *update, rng, window, false,
            )),
            Kind::Replay {
                runner,
                batch,
                update,
            } => {
                let mut stats = run_single(runner, oracle, *batch, *update, rng, window, true);
                stats.keygen_us = std::mem::take(&mut runner.keygen_us);
                stats.reconstruct_us = std::mem::take(&mut runner.reconstruct_us);
                Ok(stats)
            }
            Kind::FanIn {
                links,
                client,
                pool,
                sessions,
            } => run_fanin(
                links,
                client,
                pool,
                oracle,
                *sessions,
                window,
                self.tracer.as_mut(),
            ),
        }
    }

    /// Closes the client side and hands back the spans of a traced driver.
    pub fn close(self) -> Option<Tracer> {
        match self.kind {
            Kind::Scheme { .. } => None,
            Kind::Replay { runner, .. } => Some(runner.tracer),
            Kind::FanIn { links, .. } => {
                for link in links {
                    link.close();
                }
                self.tracer
            }
        }
    }
}

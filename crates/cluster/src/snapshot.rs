//! Run snapshots: persistable mid-run state for resumable simulations.
//!
//! A snapshot is a line-oriented text block capturing every piece of
//! *dynamic* state a run needs to continue — the clock, each workload's
//! lifecycle and progress, live placements, the queued (undelivered)
//! arrival events, the metrics grid cursor, the completion digest, and
//! the journal's chunk-stream checkpoint. Static state is *not* stored:
//! the cluster spec, the manager, and the workload definitions are
//! reconstructed by the caller (workloads are regenerated
//! deterministically and looked up by id). Floats travel as the hex of
//! their IEEE-754 bits, so a resumed run continues *bit-exactly*: its
//! completion digest, metrics grid, and journal stream digest match the
//! uninterrupted run's byte for byte.
//!
//! # Restrictions
//!
//! Snapshots cover the event-driven batch pipeline — the state a
//! million-job run actually carries. [`snapshot`] fails when the run
//! uses features whose state has no serial form:
//!
//! * measurement noise must be 0 (the RNG state is not captured; with
//!   noise disabled the RNG is never drawn from),
//! * only batch workloads (service QoS accounting is not serialized),
//! * no queued phase changes and no phase-override interference
//!   profiles.
//!
//! The manager's own state is also not captured: resume with a
//! stateless manager (one that derives its decisions from the world,
//! like the FIFO greedy manager
//! `mid_run_snapshot_resume_matches_uninterrupted_run` resumes with) or
//! rebuild the manager externally before resuming. A workload's last
//! monitoring observation is dropped; it reappears one tick after
//! resume.

use std::fmt::Write as _;
use std::io;

use quasar_workloads::{Compression, FrameworkParams, NodeResources, Workload, WorkloadId};

use crate::chunk::{bad, bits, no_trailing, parse_bits, parse_num, ChunkProvider};
use crate::cluster::ClusterSpec;
use crate::managers::Manager;
use crate::placement::{NodeAlloc, Placement};
use crate::server::ServerId;
use crate::sim::{SimConfig, Simulation};
use crate::world::{Entry, JobState, Retention};

/// Schema tag on the first line of every snapshot.
pub const SNAPSHOT_SCHEMA: &str = "quasar.sim.snapshot.v2";

/// Renders a snapshot of the simulation's dynamic state.
///
/// Seals the journal's open chunk first (when a chunk provider is
/// attached), so the stored chunk stream covers every event up to the
/// snapshot instant and the embedded checkpoint points just past it.
///
/// # Errors
///
/// Fails with `InvalidData` when the run holds state a snapshot cannot
/// carry (see the module docs for the exact restrictions).
pub fn snapshot(sim: &mut Simulation) -> io::Result<String> {
    let arrivals = sim.queued_arrivals().map_err(bad)?;
    let next_seq = sim.event_seq();
    sim.world_mut().journal_mut().seal_open_chunk();
    let world = sim.world();
    if world.noise() > 0.0 {
        return Err(bad(
            "snapshots require noise = 0 (RNG state is not captured)".into(),
        ));
    }

    let mut out = format!(
        "{SNAPSHOT_SCHEMA} tick={} interval={}\n",
        bits(world.tick_s()),
        bits(world.metrics().interval_s()),
    );
    let _ = writeln!(out, "clock {}", bits(world.now()));
    let _ = writeln!(out, "next_seq {next_seq}");
    let _ = writeln!(
        out,
        "digest {:016x} {}",
        world.completion_digest(),
        world.retired_count()
    );
    let retention = match world.retention() {
        Retention::KeepAll => "keep",
        Retention::DropCompleted => "drop",
    };
    let _ = writeln!(out, "retention {retention}");
    let (next_index, total) = world.metrics_checkpoint();
    let _ = writeln!(out, "metrics {next_index} {total}");
    let (next_chunk, streamed, stream_digest) = world.journal().checkpoint();
    let _ = writeln!(out, "journal {next_chunk} {streamed} {stream_digest:016x}");

    let _ = writeln!(out, "events {}", arrivals.len());
    for (time_s, seq, id) in &arrivals {
        let _ = writeln!(out, "{} {seq} {}", bits(*time_s), id.0);
    }

    let entries = world.snapshot_entries();
    let _ = writeln!(out, "entries {}", entries.len());
    for (id, e) in &entries {
        if !e.workload.spec().class.is_batch() {
            return Err(bad(format!(
                "workload {} is not batch; service state cannot be snapshotted",
                id.0
            )));
        }
        if e.phase_interference.is_some() {
            return Err(bad(format!(
                "workload {} has a phase interference override; cannot snapshot",
                id.0
            )));
        }
        let state = match e.state {
            JobState::Pending => 'P',
            JobState::Running => 'R',
            JobState::Completed => 'C',
            JobState::Killed => 'K',
        };
        let opt = |v: Option<f64>| v.map(bits).unwrap_or_else(|| "-".into());
        let reserved = e
            .reserved
            .map(|(c, m)| format!("{c}:{}", bits(m)))
            .unwrap_or_else(|| "-".into());
        let _ = writeln!(
            out,
            "{} {state} {} {} {} {} {} {} {} {reserved}",
            id.0,
            bits(e.remaining_work),
            bits(e.submitted_s),
            opt(e.placed_s),
            opt(e.finished_s),
            bits(e.profiling_s),
            bits(e.rate_factor),
            e.peak_cores,
        );
    }

    let placements = world.snapshot_placements();
    let _ = writeln!(out, "placements {}", placements.len());
    for p in &placements {
        let codec = match p.params.compression {
            Compression::None => "none",
            Compression::Lzo => "lzo",
            Compression::Gzip => "gzip",
        };
        let _ = write!(
            out,
            "{} {} {} {} {} {codec} {}",
            p.workload.0,
            p.params.mappers_per_node,
            bits(p.params.heap_gb),
            p.params.block_size_mb,
            p.params.replication,
            p.nodes.len(),
        );
        for n in &p.nodes {
            let _ = write!(
                out,
                " {}:{}:{}:{}",
                n.server.0,
                n.resources.cores,
                bits(n.resources.memory_gb),
                bits(n.active_after),
            );
        }
        out.push('\n');
    }

    // Open QoS violation episodes: without them, a resumed run would
    // close episodes with different ticks/evidence than the
    // uninterrupted run and the journal streams would diverge. The
    // closed ledger is not stored — it is reconstructable from the
    // chunk stream's `qos_episode` events.
    let qos_open = world.qos().export_open();
    let _ = writeln!(out, "qos {}", qos_open.len());
    for (id, ep) in qos_open {
        let _ = writeln!(
            out,
            "{} {} {} {} {} {} {} {}",
            id.0,
            bits(ep.start_s),
            ep.ticks,
            bits(ep.peak_depth),
            bits(ep.interference_sum),
            bits(ep.rate_dev_sum),
            bits(ep.util_sum),
            bits(ep.queue_wait_s),
        );
    }
    out.push_str("end\n");
    Ok(out)
}

/// Rebuilds a simulation from a snapshot.
///
/// `spec`, `manager`, and `config` must match the original run (the
/// tick and metrics interval are validated bitwise against the
/// snapshot; `config.noise` must be 0). `provider`, when given as
/// `(chunk_cap, store)`, is attached to the journal *before* the
/// stream checkpoint is restored — pass the same chunk directory the
/// snapshotted run wrote so the stream stays contiguous. `workload_for`
/// regenerates the workload for an id; it is called once per surviving
/// entry and once per queued arrival, and must return workloads
/// identical to the original run's (same generator, same seed).
///
/// # Errors
///
/// Fails with `InvalidData` on schema/config mismatch or a malformed
/// snapshot, and propagates placement-capacity failures (which indicate
/// a spec mismatch).
pub fn resume(
    spec: ClusterSpec,
    manager: Box<dyn Manager>,
    config: SimConfig,
    text: &str,
    provider: Option<(usize, Box<dyn ChunkProvider>)>,
    workload_for: &mut dyn FnMut(WorkloadId) -> Workload,
) -> io::Result<Simulation> {
    if config.noise > 0.0 {
        return Err(bad("resume requires a noise = 0 config".into()));
    }
    let mut lines = text.lines();
    let header = next_line(&mut lines, "header")?;
    let mut fields = header.split(' ');
    if fields.next() != Some(SNAPSHOT_SCHEMA) {
        return Err(bad(format!("bad snapshot schema in header: {header:?}")));
    }
    let mut field = |name: &str| -> io::Result<&str> {
        fields
            .next()
            .and_then(|f| f.strip_prefix(name))
            .and_then(|f| f.strip_prefix('='))
            .ok_or_else(|| bad(format!("missing header field {name}")))
    };
    let tick = parse_bits(field("tick")?)?;
    let interval = parse_bits(field("interval")?)?;
    no_trailing(fields, header)?;
    if tick.to_bits() != config.tick_s.to_bits() {
        return Err(bad(format!(
            "config tick {} does not match snapshot tick {tick}",
            config.tick_s
        )));
    }
    if interval.to_bits() != config.metrics_interval_s.to_bits() {
        return Err(bad(format!(
            "config metrics interval {} does not match snapshot interval {interval}",
            config.metrics_interval_s
        )));
    }

    let clock = parse_bits(&one(keyed(&mut lines, "clock")?, "clock")?)?;
    let next_seq: u64 = parse_num(
        &one(keyed(&mut lines, "next_seq")?, "next_seq")?,
        "next_seq",
    )?;
    let [digest, retired] = two(keyed(&mut lines, "digest")?, "digest")?;
    let digest = u64::from_str_radix(&digest, 16).map_err(|_| bad("bad digest hex".into()))?;
    let retired: u64 = parse_num(&retired, "retired")?;
    let retention = match one(keyed(&mut lines, "retention")?, "retention")?.as_str() {
        "keep" => Retention::KeepAll,
        "drop" => Retention::DropCompleted,
        other => return Err(bad(format!("unknown retention {other:?}"))),
    };
    let [m_next, m_total] = two(keyed(&mut lines, "metrics")?, "metrics")?;
    let m_next: u64 = parse_num(&m_next, "metrics next index")?;
    let m_total: u64 = parse_num(&m_total, "metrics total")?;
    let [j_chunk, j_streamed, j_digest] = three(keyed(&mut lines, "journal")?, "journal")?;
    let j_chunk: u64 = parse_num(&j_chunk, "journal chunk")?;
    let j_streamed: u64 = parse_num(&j_streamed, "journal streamed")?;
    let j_digest =
        u64::from_str_radix(&j_digest, 16).map_err(|_| bad("bad journal digest hex".into()))?;

    let n_events: usize = parse_num(
        &one(keyed(&mut lines, "events")?, "events")?,
        "events count",
    )?;
    let mut arrivals = Vec::with_capacity(n_events);
    for _ in 0..n_events {
        let line = next_line(&mut lines, "event")?;
        let mut f = line.split(' ');
        let mut take = |what: &str| f.next().ok_or_else(|| bad(format!("missing {what}")));
        let time_s = parse_bits(take("event time")?)?;
        let seq: u64 = parse_num(take("event seq")?, "event seq")?;
        let id = WorkloadId(parse_num(take("event workload")?, "event workload")?);
        no_trailing(f, line)?;
        let workload = workload_for(id);
        if workload.id() != id {
            return Err(bad(format!(
                "workload_for({}) returned workload {}",
                id.0,
                workload.id().0
            )));
        }
        arrivals.push((time_s, seq, workload));
    }

    let n_entries: usize = parse_num(
        &one(keyed(&mut lines, "entries")?, "entries")?,
        "entries count",
    )?;
    let mut entries = Vec::with_capacity(n_entries);
    for _ in 0..n_entries {
        let line = next_line(&mut lines, "entry")?;
        let mut f = line.split(' ');
        let mut take = |what: &str| f.next().ok_or_else(|| bad(format!("missing {what}")));
        let id = WorkloadId(parse_num(take("entry id")?, "entry id")?);
        let state = match take("entry state")? {
            "P" => JobState::Pending,
            "R" => JobState::Running,
            "C" => JobState::Completed,
            "K" => JobState::Killed,
            other => return Err(bad(format!("unknown entry state {other:?}"))),
        };
        let remaining_work = parse_bits(take("remaining")?)?;
        let submitted_s = parse_bits(take("submitted")?)?;
        let opt = |s: &str| -> io::Result<Option<f64>> {
            if s == "-" {
                Ok(None)
            } else {
                parse_bits(s).map(Some)
            }
        };
        let placed_s = opt(take("placed")?)?;
        let finished_s = opt(take("finished")?)?;
        let profiling_s = parse_bits(take("profiling")?)?;
        let rate_factor = parse_bits(take("rate")?)?;
        let peak_cores: u32 = parse_num(take("peak")?, "peak cores")?;
        let reserved = match take("reserved")? {
            "-" => None,
            s => {
                let (c, m) = s
                    .split_once(':')
                    .ok_or_else(|| bad(format!("bad reserved field {s:?}")))?;
                Some((parse_num(c, "reserved cores")?, parse_bits(m)?))
            }
        };
        no_trailing(f, line)?;
        let workload = workload_for(id);
        if workload.id() != id {
            return Err(bad(format!(
                "workload_for({}) returned workload {}",
                id.0,
                workload.id().0
            )));
        }
        entries.push(Entry {
            workload,
            state,
            remaining_work,
            submitted_s,
            placed_s,
            finished_s,
            profiling_s,
            rate_factor,
            phase_interference: None,
            offered_queries: 0.0,
            served_queries: 0.0,
            queries_meeting_qos: 0.0,
            windows_total: 0,
            util_sum: 0.0,
            peak_cores,
            last_obs: None,
            reserved,
        });
    }

    let n_placements: usize = parse_num(
        &one(keyed(&mut lines, "placements")?, "placements")?,
        "placements count",
    )?;
    let mut placements = Vec::with_capacity(n_placements);
    for _ in 0..n_placements {
        let line = next_line(&mut lines, "placement")?;
        let mut f = line.split(' ');
        let mut take = |what: &str| f.next().ok_or_else(|| bad(format!("missing {what}")));
        let id = WorkloadId(parse_num(take("placement id")?, "placement id")?);
        let params = FrameworkParams {
            mappers_per_node: parse_num(take("mappers")?, "mappers")?,
            heap_gb: parse_bits(take("heap")?)?,
            block_size_mb: parse_num(take("block")?, "block size")?,
            replication: parse_num(take("replication")?, "replication")?,
            compression: match take("compression")? {
                "none" => Compression::None,
                "lzo" => Compression::Lzo,
                "gzip" => Compression::Gzip,
                other => return Err(bad(format!("unknown compression {other:?}"))),
            },
        };
        let n_nodes: usize = parse_num(take("node count")?, "node count")?;
        let mut nodes = Vec::with_capacity(n_nodes);
        for _ in 0..n_nodes {
            let node = take("node")?;
            let parts: Vec<&str> = node.split(':').collect();
            if parts.len() != 4 {
                return Err(bad(format!("bad node field {node:?}")));
            }
            nodes.push(NodeAlloc {
                server: ServerId(parse_num(parts[0], "node server")?),
                resources: NodeResources::new(
                    parse_num(parts[1], "node cores")?,
                    parse_bits(parts[2])?,
                ),
                active_after: parse_bits(parts[3])?,
            });
        }
        no_trailing(f, line)?;
        placements.push(Placement::new(id, nodes, params));
    }

    let n_qos: usize = parse_num(&one(keyed(&mut lines, "qos")?, "qos")?, "qos count")?;
    let mut qos_open = Vec::with_capacity(n_qos);
    for _ in 0..n_qos {
        let line = next_line(&mut lines, "qos episode")?;
        let mut f = line.split(' ');
        let mut take = |what: &str| f.next().ok_or_else(|| bad(format!("missing {what}")));
        let id = WorkloadId(parse_num(take("qos workload")?, "qos workload")?);
        // Struct literals evaluate in source order, which is line order.
        qos_open.push((
            id,
            crate::qos::OpenEpisode {
                start_s: parse_bits(take("qos start")?)?,
                ticks: parse_num(take("qos ticks")?, "qos ticks")?,
                peak_depth: parse_bits(take("qos peak")?)?,
                interference_sum: parse_bits(take("qos interference")?)?,
                rate_dev_sum: parse_bits(take("qos rate dev")?)?,
                util_sum: parse_bits(take("qos util")?)?,
                queue_wait_s: parse_bits(take("qos queue wait")?)?,
            },
        ));
        no_trailing(f, line)?;
    }

    if next_line(&mut lines, "end")? != "end" {
        return Err(bad("snapshot missing end marker".into()));
    }

    let mut sim = Simulation::new(spec, manager, config);
    {
        let world = sim.world_mut();
        world.restore_clock(clock);
        world.set_retention(retention);
        world.restore_accounting(digest, retired);
        world.restore_metrics(m_next, m_total);
        for entry in entries {
            world.restore_entry(entry);
        }
        for placement in placements {
            world
                .restore_placement(placement)
                .map_err(|e| bad(format!("placement restore failed: {e:?}")))?;
        }
        for (id, episode) in qos_open {
            world.qos_mut().restore_open(id, episode);
        }
        let journal = world.journal_mut();
        if let Some((chunk_cap, store)) = provider {
            journal.attach_provider(chunk_cap, store);
        }
        journal.restore(j_chunk, j_streamed, j_digest);
    }
    sim.restore_queue(arrivals, next_seq);
    Ok(sim)
}

fn next_line<'a>(lines: &mut std::str::Lines<'a>, what: &str) -> io::Result<&'a str> {
    lines
        .next()
        .ok_or_else(|| bad(format!("snapshot truncated before {what}")))
}

fn keyed(lines: &mut std::str::Lines<'_>, key: &str) -> io::Result<Vec<String>> {
    let line = next_line(lines, key)?;
    let mut f = line.split(' ');
    if f.next() != Some(key) {
        return Err(bad(format!("expected {key:?} line, got {line:?}")));
    }
    Ok(f.map(str::to_string).collect())
}

fn one(fields: Vec<String>, what: &str) -> io::Result<String> {
    let [v] = <[String; 1]>::try_from(fields)
        .map_err(|_| bad(format!("{what} line needs exactly 1 field")))?;
    Ok(v)
}

fn two(fields: Vec<String>, what: &str) -> io::Result<[String; 2]> {
    <[String; 2]>::try_from(fields).map_err(|_| bad(format!("{what} line needs exactly 2 fields")))
}

fn three(fields: Vec<String>, what: &str) -> io::Result<[String; 3]> {
    <[String; 3]>::try_from(fields).map_err(|_| bad(format!("{what} line needs exactly 3 fields")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::FileChunks;
    use quasar_workloads::generate::Generator;
    use quasar_workloads::{PlatformCatalog, Priority};
    use std::collections::HashMap;

    fn fifo() -> Box<dyn Manager> {
        Box::new(crate::managers::FifoGreedy::new(4, 4.0))
    }

    fn config() -> SimConfig {
        SimConfig {
            noise: 0.0,
            ..SimConfig::default()
        }
    }

    fn spec() -> ClusterSpec {
        ClusterSpec::uniform(PlatformCatalog::local(), 2)
    }

    fn jobs(n: usize) -> Vec<Workload> {
        let mut generator = Generator::new(PlatformCatalog::local(), 42);
        (0..n)
            .map(|i| generator.single_node_job(format!("j{i}"), 400.0, Priority::Guaranteed))
            .collect()
    }

    /// Regenerates job `id` of [`jobs`].
    fn regenerate(id: WorkloadId) -> Workload {
        jobs(5)
            .into_iter()
            .find(|w| w.id() == id)
            .expect("a job of the run")
    }

    type Outcome = (u64, Vec<crate::world::CompletionRecord>, u64, u64, u64, u64);

    fn outcome(sim: &Simulation) -> Outcome {
        let world = sim.world();
        (
            world.completion_digest(),
            world.completions(),
            world.retired_count(),
            world.metrics().total_count(),
            world.now().to_bits(),
            world.journal().stream_digest(),
        )
    }

    /// The headline resumability guarantee: snapshot mid-run, rebuild
    /// from the text, continue — every outcome (completion digest,
    /// records, retired count, metrics grid, clock, journal stream
    /// digest) matches the uninterrupted run bitwise, under both
    /// retention policies. A resume that lost the `retention` line would
    /// keep the post-snapshot completions the reference run drops.
    ///
    /// Resuming inside the test process proves as much as resuming in a
    /// fresh one: the snapshot text and the chunk directory are the only
    /// carriers of run state, and the only `static`s in this crate are
    /// metrics-registry handles that no run reads back.
    #[test]
    fn mid_run_snapshot_resume_matches_uninterrupted_run() {
        for retention in [Retention::KeepAll, Retention::DropCompleted] {
            let dir = std::env::temp_dir()
                .join(format!("quasar-snap-{}-{retention:?}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let arrivals = [0.0, 120.0, 650.0, 700.0, 1_500.0];
            let start = |store: Box<dyn ChunkProvider>| {
                let mut sim = Simulation::new(spec(), fifo(), config());
                sim.world_mut().set_retention(retention);
                sim.world_mut().journal_mut().attach_provider(3, store);
                for (w, at) in jobs(5).into_iter().zip(arrivals) {
                    sim.submit_at(w, at);
                }
                sim
            };

            // Reference: one uninterrupted run, chunk stream in memory.
            let mut a = start(Box::new(crate::chunk::MemoryChunks::new()));
            a.run_until(4_000.0);
            a.world_mut().journal_mut().seal_open_chunk();
            assert_eq!(
                a.world().retired_count() > 0,
                retention == Retention::DropCompleted,
                "only DropCompleted retires entries"
            );

            // Interrupted run: snapshot at t=1200, after j0 finished
            // (held or retired) and before j4 arrives.
            let mut b = start(Box::new(FileChunks::open(&dir).unwrap()));
            b.run_until(1_200.0);
            let text = snapshot(&mut b).unwrap();
            drop(b);
            assert!(text.starts_with("quasar.sim.snapshot.v2 tick="));

            // A v1 text (which carried a placement column v2 dropped) is
            // refused at the header, before any line is misparsed.
            let v1 = text.replacen("quasar.sim.snapshot.v2", "quasar.sim.snapshot.v1", 1);
            let err = resume(spec(), fifo(), config(), &v1, None, &mut regenerate)
                .err()
                .expect("a v1 header must be refused");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(err.to_string().contains("bad snapshot schema"), "{err}");

            // Resume from text + the chunk directory + regenerated jobs.
            let mut pool: HashMap<WorkloadId, Workload> =
                jobs(5).into_iter().map(|w| (w.id(), w)).collect();
            let mut c = resume(
                spec(),
                fifo(),
                config(),
                &text,
                Some((3, Box::new(FileChunks::open(&dir).unwrap()))),
                &mut |id| pool.remove(&id).expect("workload regenerated once"),
            )
            .unwrap();
            assert_eq!(c.world().now(), 1_200.0);
            c.run_until(4_000.0);
            c.world_mut().journal_mut().seal_open_chunk();

            assert_eq!(outcome(&a), outcome(&c), "{retention:?}");
            // The chunk stream on disk replays to the same digest the
            // resumed run carries live.
            let store = FileChunks::open(&dir).unwrap();
            assert_eq!(
                crate::chunk::replay_digest(&store).unwrap(),
                c.world().journal().stream_digest(),
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn a_trailing_field_is_rejected_on_every_line() {
        let mut sim = Simulation::new(spec(), fifo(), config());
        for (w, at) in jobs(5).into_iter().zip([0.0, 120.0, 650.0, 700.0, 1_500.0]) {
            sim.submit_at(w, at);
        }
        sim.run_until(1_200.0);
        let text = snapshot(&mut sim).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        // Every record section holds at least one line to extend.
        for section in ["events", "entries", "placements", "qos"] {
            let count = lines
                .iter()
                .find_map(|l| l.strip_prefix(section)?.strip_prefix(' '))
                .expect("section header");
            assert_ne!(count, "0", "{section} section is empty");
        }
        let resumed = |text: &str| resume(spec(), fifo(), config(), text, None, &mut regenerate);
        assert!(resumed(&text).is_ok());
        for i in 0..lines.len() {
            let mut extended = lines.clone();
            let line = format!("{} 7", lines[i]);
            extended[i] = &line;
            let err = resumed(&(extended.join("\n") + "\n"))
                .err()
                .unwrap_or_else(|| panic!("line {i} accepted a trailing field: {line:?}"));
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "line {i}");
        }
    }

    #[test]
    fn snapshot_rejects_unserializable_state() {
        // Noise captures RNG state the snapshot cannot carry.
        let mut s = Simulation::new(spec(), fifo(), SimConfig::default());
        assert!(snapshot(&mut s).is_err(), "noise > 0 must be rejected");

        // Queued phase changes have no serial form.
        let mut s = Simulation::new(spec(), fifo(), config());
        let job = jobs(1).pop().unwrap();
        let id = job.id();
        s.submit_at(job, 0.0);
        s.schedule_phase_change(id, 50.0, crate::sim::PhaseChange::RateFactor(0.5));
        assert!(snapshot(&mut s).is_err(), "queued phase must be rejected");
    }

    #[test]
    fn resume_rejects_mismatched_config() {
        let mut s = Simulation::new(spec(), fifo(), config());
        let text = snapshot(&mut s).unwrap();
        let other = SimConfig {
            tick_s: 1.0,
            ..config()
        };
        let err = resume(spec(), fifo(), other, &text, None, &mut |_| unreachable!());
        assert!(err.is_err(), "tick mismatch must be rejected");
    }
}

//! Real `kill -9` process-crash recovery: a driver that SIGKILLs a
//! durable runtime *as an actual child process* at seeded random points
//! mid-publish-storm, restarts it over the same store directory, and
//! proves every recovery byte-identical against a driver-side oracle.
//!
//! In-process crash tests (the chaos suite) freeze a [`FaultFs`]
//! directory image; this harness removes the last layer of simulation.
//! The child (`crashkill_child`, a separate bin target) boots
//! [`mtl_runtime::Runtime::with_durability`] over a real on-disk store,
//! prints the durable op prefix it recovered (`READY <n>`), then
//! applies a deterministic publish stream from op `n` onward, acking
//! each durably-logged op on stdout. The driver kills it with SIGKILL —
//! no atexit, no Drop, no flushes — after a seeded random delay, then
//! audits the directory the corpse left behind:
//!
//! * the durable prefix `n` on disk never goes backward, and covers
//!   every op the child acked before dying (a durably-acked publish is
//!   never lost);
//! * `decode(newest valid snapshot) + replay(WAL tail)` equals, byte
//!   for byte, the oracle table built by replaying ops `0..n` onto the
//!   same fallback — for *every* incarnation, not just the last;
//! * WAL compaction + snapshot retention GC keep the directory bounded
//!   across dozens of kill/restart generations;
//! * **flight-log post-mortem** — the corpse's `flight.log` (the flight
//!   recorder image the runtime flushes at checkpoint cadence) decodes
//!   cleanly, its timeline is time-ordered, and every WAL append /
//!   checkpoint watermark it records lies inside the durable prefix
//!   the disk actually holds — the recorder's last words never claim
//!   work the crash lost.
//!
//! Reproducibility: the op stream, fallback table and kill delays all
//! derive from one seed (`CHAOS_SEED`, decimal or `0x`-hex). The kill
//! *point* still races the child's real execution speed — that is the
//! point of the exercise — but a failing seed replays the same delay
//! schedule.
//!
//! [`FaultFs`]: mtl_persist::FaultFs

use crate::output::{write_json, ToJson};
use classifier_api::{ClassifierBuilder, DynamicClassifier};
use minijson::{obj, Json};
use mtl_core::MtlSwitch;
use mtl_persist::{Persistent, Store, WalOp, WalRecord};
use mtl_runtime::trace::{decode_flight_log, EventKind};
use offilter::synth::{generate_routing, RoutingTargets};
use offilter::{Rule, RuleAction};
use oflow::{FlowMatch, MatchFieldKind};
use std::io::BufRead;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// First rule id of the publish stream (far above any synth set id).
pub const BASE_ID: u32 = 3_500_000;

/// Checkpoint cadence the child runs with.
pub const CHECKPOINT_EVERY: u64 = 32;

/// WAL segment rotation threshold the child runs with — small, so a
/// multi-generation run rotates constantly and GC earns its keep.
pub const SEGMENT_BYTES: u64 = 2048;

/// Snapshot generations the child's store retains.
pub const RETAIN: usize = 2;

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One op of the deterministic publish stream.
#[derive(Debug, Clone)]
pub enum CrashOp {
    /// Publish a fresh rule.
    Add(Rule),
    /// Retract a previously published rule.
    Remove(u32),
}

/// Op `i` of the stream for `seed`. Every 5th op removes the rule the
/// previous op added (always an add; each id is added and removed at
/// most once), so the table churns instead of only growing. The stream
/// is unbounded — any prefix is valid work.
#[must_use]
pub fn stream_op(seed: u64, i: u64) -> CrashOp {
    if i % 5 == 4 {
        return CrashOp::Remove(BASE_ID + (i as u32) - 1);
    }
    let mix = splitmix(seed ^ i);
    CrashOp::Add(Rule::new(
        BASE_ID + i as u32,
        u16::MAX - 1,
        FlowMatch::any()
            .with_exact(MatchFieldKind::InPort, u128::from(1 + (mix % 4) as u32))
            .unwrap()
            .with_prefix(MatchFieldKind::Ipv4Dst, 0x0C00_0000 + (u128::from(mix % 0xFFFF) << 8), 24)
            .unwrap(),
        RuleAction::Forward(901),
    ))
}

/// The fallback table both sides boot from: a small synthetic routing
/// set, deterministic in `seed`.
#[must_use]
pub fn fallback_switch(seed: u64) -> MtlSwitch {
    let targets = RoutingTargets {
        name: "crashkill".to_string(),
        rules: 256,
        port_unique: 16,
        ip_partitions: [64, 64],
        short_prefixes: 2,
        out_ports: 32,
    };
    let set = generate_routing(&targets, seed ^ 0xC4A5_4C11);
    <MtlSwitch as ClassifierBuilder>::try_build(&set).expect("fallback switch builds")
}

/// Applies ops `0..n` of the stream onto the fallback — the oracle for
/// what a store holding a durable prefix of `n` ops must decode to.
#[must_use]
pub fn oracle_image(seed: u64, n: u64) -> Vec<u8> {
    let mut switch = fallback_switch(seed);
    for i in 0..n {
        match stream_op(seed, i) {
            CrashOp::Add(rule) => {
                switch.insert_rule(rule).expect("oracle add applies");
            }
            CrashOp::Remove(id) => {
                DynamicClassifier::remove_rule(&mut switch, id).expect("oracle remove hits");
            }
        }
    }
    switch.encode_image()
}

fn replay_records(switch: &mut MtlSwitch, records: &[WalRecord]) {
    for record in records {
        match WalOp::decode(&record.payload).expect("WAL record decodes") {
            WalOp::Add { rule, .. } => {
                switch.insert_rule(rule).expect("replay add applies");
            }
            WalOp::Remove { rule_id } => {
                DynamicClassifier::remove_rule(switch, rule_id).expect("replay remove hits");
            }
        }
    }
}

/// The durable prefix a store directory holds: ops are logged 1:1 with
/// WAL sequence numbers, so the prefix is `last record seq + 1` (or the
/// snapshot watermark when the tail is empty). Also used by the child
/// to decide where to resume the stream.
///
/// # Panics
/// On any store-level IO or decode error — in this harness the store
/// lives on a real, healthy filesystem.
#[must_use]
pub fn durable_prefix(dir: &Path) -> u64 {
    let mut store = Store::open(dir).expect("store opens");
    match store.restore().expect("restore scans") {
        Some(point) => point.wal_tail.last().map_or(point.wal_seq, |r| r.seq + 1),
        None => store.wal_records().expect("wal scans").last().map_or(0, |r| r.seq + 1),
    }
}

/// Rebuilds the disk state — `decode(newest valid snapshot) +
/// replay(WAL tail)`, or fallback + full-WAL replay when no snapshot
/// survived — and returns `(encoded image, durable prefix)`.
#[must_use]
pub fn disk_state(dir: &Path, seed: u64) -> (Vec<u8>, u64) {
    let mut store = Store::open(dir).expect("store opens");
    match store.restore().expect("restore scans") {
        Some(point) => {
            let n = point.wal_tail.last().map_or(point.wal_seq, |r| r.seq + 1);
            let mut switch = MtlSwitch::decode_image(&point.image).expect("image decodes");
            replay_records(&mut switch, &point.wal_tail);
            (switch.encode_image(), n)
        }
        None => {
            let records = store.wal_records().expect("wal scans");
            let n = records.last().map_or(0, |r| r.seq + 1);
            let mut switch = fallback_switch(seed);
            replay_records(&mut switch, &records);
            (switch.encode_image(), n)
        }
    }
}

/// The seed for this run: `CHAOS_SEED` (decimal or `0x`-hex) when set,
/// else the repo default. Parsed here because the runtime's own
/// `resolve_seed` is gated behind its fault-injection feature.
#[must_use]
pub fn chaos_seed() -> u64 {
    match std::env::var("CHAOS_SEED") {
        Ok(raw) => {
            let raw = raw.trim();
            let parsed = raw
                .strip_prefix("0x")
                .or_else(|| raw.strip_prefix("0X"))
                .map_or_else(|| raw.parse(), |hex| u64::from_str_radix(hex, 16));
            parsed.unwrap_or_else(|_| panic!("CHAOS_SEED {raw:?} is not a u64"))
        }
        Err(_) => crate::DEFAULT_SEED,
    }
}

/// Result of one full harness run.
#[derive(Debug, Clone)]
pub struct CrashkillRun {
    /// Seed the op stream, fallback and kill delays derived from.
    pub seed: u64,
    /// SIGKILLs that landed mid-storm (the target count).
    pub kills: u64,
    /// Rounds where the child finished its batch before the kill fired.
    pub clean_rounds: u64,
    /// Ops durably on disk when the final (unkilled) round completed.
    pub final_ops: u64,
    /// Byte-identical disk-vs-oracle audits performed (one per round).
    pub audits: u64,
    /// Flight-log post-mortems performed (rounds where a `flight.log`
    /// existed, decoded cleanly, and told a story consistent with the
    /// disk's durable prefix).
    pub post_mortems: u64,
    /// WAL segments on disk at the end.
    pub wal_segments: u64,
    /// Snapshot files on disk at the end.
    pub snapshots: u64,
    /// Total store bytes at the end.
    pub store_bytes: u64,
}

impl ToJson for CrashkillRun {
    fn to_json(&self) -> Json {
        obj([
            ("experiment", "crashkill".into()),
            ("seed", self.seed.into()),
            ("kills", self.kills.into()),
            ("clean_rounds", self.clean_rounds.into()),
            ("final_ops", self.final_ops.into()),
            ("audits", self.audits.into()),
            ("post_mortems", self.post_mortems.into()),
            ("wal_segments", self.wal_segments.into()),
            ("snapshots", self.snapshots.into()),
            ("store_bytes", self.store_bytes.into()),
        ])
    }
}

fn child_binary() -> PathBuf {
    let exe = std::env::current_exe().expect("current exe");
    let dir = exe.parent().expect("exe dir");
    let name = format!("crashkill_child{}", std::env::consts::EXE_SUFFIX);
    let sibling = dir.join(&name);
    if sibling.exists() {
        return sibling;
    }
    // Under `cargo test` the test binary lives one level down in deps/.
    let up = dir.parent().map(|p| p.join(&name));
    match up {
        Some(p) if p.exists() => p,
        _ => panic!(
            "crashkill_child binary not found next to {} — build it first \
             (cargo build --release -p mtl-bench --bins)",
            exe.display()
        ),
    }
}

struct Round {
    /// Ops durably on disk after the round.
    durable: u64,
    /// Whether the SIGKILL landed before the child printed DONE.
    killed: bool,
    /// Time from READY to DONE when the round ran clean.
    clean_elapsed: Option<Duration>,
    /// Whether a flight-log post-mortem ran (a `flight.log` existed).
    post_mortem: bool,
}

/// The flight-log post-mortem: decodes whatever `flight.log` the corpse
/// (or clean exit) left behind and cross-checks the recorder's story
/// against the disk's. Returns whether a log existed to audit.
///
/// The invariants: the image decodes (it was written atomically, so a
/// kill mid-flush can never leave a torn one), the timeline is
/// time-ordered, and nothing in it claims durability the disk does not
/// have — every recorded WAL append seq and checkpoint watermark lies
/// strictly inside the durable prefix, because the flush that persisted
/// the event happened *after* the append it describes was fsynced.
fn flight_post_mortem(dir: &Path, durable: u64) -> bool {
    let store = Store::open(dir).expect("store opens");
    let Some(image) = store.read_flight_log().expect("flight log readable") else {
        return false;
    };
    let events = decode_flight_log(&image).expect("flight log decodes after SIGKILL");
    assert!(!events.is_empty(), "a flushed flight log is never empty");
    assert!(
        events.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns),
        "post-mortem timeline is time-ordered"
    );
    assert!(
        events.iter().any(|e| e.kind == EventKind::Boot),
        "the incarnation's boot is on the timeline"
    );
    for e in &events {
        match e.kind {
            // WalAppend.a is the record's WAL seq; ops map 1:1 onto
            // seqs, so a recorded append must lie inside the prefix.
            EventKind::WalAppend => assert!(
                e.a < durable,
                "flight log records WAL append seq {} beyond the durable prefix {durable}",
                e.a
            ),
            // CheckpointSuccess.b is the seq watermark at checkpoint
            // time — never past what the disk durably holds.
            EventKind::CheckpointSuccess => assert!(
                e.b <= durable,
                "flight log records checkpoint watermark {} beyond the durable prefix {durable}",
                e.b
            ),
            _ => {}
        }
    }
    true
}

/// Spawns one child incarnation over `dir`, optionally killing it after
/// `kill_after`, then audits the directory it left behind.
fn round(dir: &Path, seed: u64, ops_target: u64, kill_after: Option<Duration>) -> Round {
    let mut child = std::process::Command::new(child_binary())
        .arg("--dir")
        .arg(dir)
        .arg("--seed")
        .arg(seed.to_string())
        .arg("--ops")
        .arg(ops_target.to_string())
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn crashkill_child");
    let mut lines = std::io::BufReader::new(child.stdout.take().expect("piped stdout")).lines();

    let ready = lines.next().expect("child printed READY").expect("read READY");
    let recovered: u64 = ready
        .strip_prefix("READY ")
        .unwrap_or_else(|| panic!("unexpected child greeting {ready:?}"))
        .parse()
        .expect("READY carries the recovered prefix");
    let started = Instant::now();

    let mut killed = false;
    if let Some(delay) = kill_after {
        std::thread::sleep(delay);
        // SIGKILL on unix: no handlers, no Drop, no flushes.
        killed = child.kill().is_ok();
    }
    // Drain whatever the child managed to write before dying (or its
    // full run when unkilled). A kill can tear the last line mid-write;
    // only well-formed lines count.
    let mut last_ack: Option<u64> = None;
    let mut done = false;
    let mut clean_elapsed = None;
    for line in lines {
        let Ok(line) = line else { break };
        if let Some(i) = line.strip_prefix("ACK ").and_then(|s| s.parse::<u64>().ok()) {
            last_ack = Some(i);
        } else if line == "DONE" {
            done = true;
            clean_elapsed = Some(started.elapsed());
        }
    }
    let status = child.wait().expect("reap child");
    if !killed || done {
        assert!(status.success(), "unkilled child exited with {status}");
    }

    // -- the audit --
    let (disk, durable) = disk_state(dir, seed);
    assert!(
        durable >= recovered,
        "durable prefix went backward: child recovered {recovered}, disk now holds {durable}"
    );
    if let Some(acked) = last_ack {
        assert!(
            durable > acked,
            "durably-acked op lost: child acked op {acked}, disk holds only {durable} ops"
        );
    }
    if done {
        assert_eq!(durable, ops_target, "clean round left fewer ops on disk than it acked");
    }
    let oracle = oracle_image(seed, durable);
    assert_eq!(
        disk, oracle,
        "recovery diverged from the oracle at durable prefix {durable} (seed {seed:#x})"
    );
    let post_mortem = flight_post_mortem(dir, durable);

    Round { durable, killed: killed && !done, clean_elapsed, post_mortem }
}

/// Runs the full harness: `kills` SIGKILLs (plus however many clean
/// rounds the race costs), one audit per round, one final unkilled
/// round, and a bounded-directory check. The store lives in a process-
/// scoped temp dir that is removed on success.
#[must_use]
pub fn run(seed: u64, kills: u64, batch: u64) -> CrashkillRun {
    let dir = std::env::temp_dir().join(format!("mtl-crashkill-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Calibration round: run one batch clean to learn how long the
    // child takes, so kill delays actually land mid-storm.
    let first = round(&dir, seed, batch, None);
    let mut window = first.clean_elapsed.expect("calibration round ran clean");
    let mut durable = first.durable;
    assert!(
        first.post_mortem,
        "the calibration round checkpoints and shuts down cleanly, so a flight log must exist"
    );

    let mut killed = 0u64;
    let mut clean = 0u64;
    let mut audits = 1u64;
    let mut post_mortems = 1u64;
    let mut attempt = 0u64;
    while killed < kills {
        attempt += 1;
        assert!(
            attempt <= kills * 8,
            "kill race never lands: {killed}/{kills} after {attempt} rounds \
             (window {window:?})"
        );
        let jitter = splitmix(seed ^ 0x4B11_5EED ^ attempt);
        let delay = Duration::from_micros(jitter % window.as_micros().max(1) as u64);
        let r = round(&dir, seed, durable + batch, Some(delay));
        durable = r.durable;
        audits += 1;
        // The flight log is never unlinked, so once the calibration
        // round wrote one every later audit has a corpse to read.
        assert!(r.post_mortem, "flight log vanished after round {attempt}");
        post_mortems += 1;
        if r.killed {
            killed += 1;
        } else {
            clean += 1;
            if let Some(elapsed) = r.clean_elapsed {
                // Keep the window tracking the child's real speed.
                window = (window + elapsed) / 2;
            }
        }
    }

    // Final incarnation: recover from the last corpse and run to
    // completion unkilled.
    let last = round(&dir, seed, durable + batch / 2, None);
    assert!(!last.killed && last.clean_elapsed.is_some());
    assert!(last.post_mortem);
    durable = last.durable;
    audits += 1;
    post_mortems += 1;

    // Hygiene: dozens of generations later the directory is still a
    // couple of snapshots plus a short WAL window, not a log of
    // everything that ever happened.
    let store = Store::open(&dir).expect("store opens");
    let disk = store.disk_stats().expect("disk stats");
    assert!(
        disk.wal_segments <= 12 && disk.snapshots <= RETAIN as u64 + 1,
        "store directory unbounded after the kill storm: {} segments, {} snapshots",
        disk.wal_segments,
        disk.snapshots
    );
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);

    CrashkillRun {
        seed,
        kills: killed,
        clean_rounds: clean,
        final_ops: durable,
        audits,
        post_mortems,
        wal_segments: disk.wal_segments,
        snapshots: disk.snapshots,
        store_bytes: disk.wal_bytes + disk.snapshot_bytes,
    }
}

/// Entry point for `repro -- crashkill`: at least `CRASHKILL_ROUNDS`
/// SIGKILLs (default 50), seeded by `CHAOS_SEED`, every recovery
/// audited byte-for-byte. Writes `crashkill.json`.
pub fn report() {
    let seed = chaos_seed();
    let kills =
        std::env::var("CRASHKILL_ROUNDS").ok().and_then(|v| v.parse().ok()).unwrap_or(50u64);
    println!("== crashkill: {kills} SIGKILLs against a durable runtime (seed {seed:#x}) ==");
    let r = run(seed, kills, 240);
    println!(
        "survived {} kills ({} clean rounds), {} byte-identical audits, {} flight-log \
         post-mortems, {} ops durable, store: {} segments / {} snapshots / {} bytes",
        r.kills,
        r.clean_rounds,
        r.audits,
        r.post_mortems,
        r.final_ops,
        r.wal_segments,
        r.snapshots,
        r.store_bytes
    );
    write_json("crashkill", &r);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_deterministic_and_removes_hit_prior_adds() {
        for i in 0..100u64 {
            match (stream_op(7, i), stream_op(7, i)) {
                (CrashOp::Add(a), CrashOp::Add(b)) => {
                    assert_eq!(a.id, b.id);
                    assert_ne!(i % 5, 4);
                }
                (CrashOp::Remove(a), CrashOp::Remove(b)) => {
                    assert_eq!(a, b);
                    assert_eq!(a, BASE_ID + i as u32 - 1);
                    assert_eq!(i % 5, 4);
                }
                _ => panic!("stream not deterministic at op {i}"),
            }
        }
    }

    #[test]
    fn oracle_prefixes_are_consistent_with_incremental_application() {
        // Applying 0..n in one go must equal the image the child's
        // incarnations converge to; spot-check the oracle round-trips
        // through its own codec (the property every audit relies on).
        let img = oracle_image(7, 25);
        let decoded = MtlSwitch::decode_image(&img).expect("oracle image decodes");
        assert_eq!(decoded.encode_image(), img);
    }
}

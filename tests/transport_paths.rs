//! Byte-for-byte pin of every packet transport path under loss and a
//! link flap.
//!
//! Twelve dumbbell cells: {DCTCP, DCTCP with the classic ECN response,
//! NewReno} × receiver ACK coalescing {1, 2} × PMSB(e) {off, 30 µs}.
//! Each cell sends four 1 MB flows into one receiver behind per-port
//! marking at K = 12, while a fault schedule drops 1% of the packets on
//! the receiver's link and takes one sender's access link down for 5 ms.
//! So every cell runs fast retransmit, partial ACKs, timeouts and the ECN
//! response together. The fingerprint is each flow's end time and full
//! sender counters, plus the run's marks, drops and fault counters.
//!
//! `tests/golden/transport_paths.txt` holds the expected fingerprints.
//! Regenerate deliberately with
//! `UPDATE_GOLDEN=1 cargo test --test transport_paths`.

use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;

use pmsb_netsim::config::EcnResponse;
use pmsb_netsim::experiment::{
    Experiment, FaultSchedule, FlowDesc, MarkingConfig, TransportConfig, TransportKind,
};

const FAULTS: &str = "seed 7
at 0 loss switch:0:4 0.01
at 4ms link-down host:1
at 9ms link-up host:1
";

/// The three ECN reactions, by name.
const REACTIONS: [(&str, TransportKind, EcnResponse); 3] = [
    ("dctcp", TransportKind::Dctcp, EcnResponse::Dctcp),
    ("dctcp+classic", TransportKind::Dctcp, EcnResponse::Classic),
    ("newreno", TransportKind::NewReno, EcnResponse::Dctcp),
];

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("transport_paths.txt")
}

/// Runs one cell and renders its fingerprint, one header line and one
/// line per flow.
fn cell(
    name: &str,
    kind: TransportKind,
    ecn: EcnResponse,
    ack_every: u64,
    pmsbe: Option<u64>,
) -> String {
    let transport = TransportConfig {
        kind,
        ecn_response: ecn,
        ack_every_packets: ack_every,
        pmsbe_rtt_threshold_nanos: pmsbe,
        ..TransportConfig::default()
    };
    let mut e = Experiment::dumbbell(4, 2)
        .marking(MarkingConfig::PerPort { threshold_pkts: 12 })
        .transport(transport)
        .faults(FaultSchedule::parse(FAULTS).expect("schedule parses"));
    for s in 0..4 {
        e.add_flow(FlowDesc::bulk(s, 4, s % 2, 1_000_000));
    }
    let res = e.run_for_millis(30);
    let f = res.faults.as_ref().expect("a schedule was attached");
    let mut out = String::new();
    writeln!(
        out,
        "cell {name} ack_every={ack_every} pmsbe_ns={} completed={} marks={} drops={} \
         injected_drops={} corrupt_drops={} unroutable_drops={} link_down={} link_up={}",
        pmsbe.map_or("off".to_string(), |n| n.to_string()),
        res.fct.len(),
        res.marks,
        res.drops,
        f.injected_drops,
        f.corrupt_drops,
        f.unroutable_drops,
        f.link_down_events,
        f.link_up_events,
    )
    .unwrap();
    let mut ids: Vec<u64> = res.sender_stats.keys().copied().collect();
    ids.sort_unstable();
    for id in ids {
        let st = &res.sender_stats[&id];
        let end = res
            .fct
            .records()
            .iter()
            .find(|r| r.flow_id == id)
            .map_or("-".to_string(), |r| r.end_nanos.to_string());
        writeln!(
            out,
            "  flow {id} end_ns={end} marks_seen={} marks_ignored={} retransmissions={} \
             timeouts={} loss_episodes={} recovery_ns={}",
            st.marks_seen,
            st.marks_ignored,
            st.retransmissions,
            st.timeouts,
            st.loss_episodes,
            st.recovery_nanos,
        )
        .unwrap();
    }
    out
}

#[test]
fn every_transport_path_matches_its_golden_fingerprint() {
    let mut produced = String::new();
    for (name, kind, ecn) in REACTIONS {
        for ack_every in [1, 2] {
            for pmsbe in [None, Some(30_000)] {
                produced.push_str(&cell(name, kind, ecn, ack_every, pmsbe));
            }
        }
    }

    let golden = golden_path();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        fs::create_dir_all(golden.parent().unwrap()).unwrap();
        fs::write(&golden, &produced).unwrap();
        eprintln!("golden file updated: {}", golden.display());
        return;
    }
    let expected = fs::read_to_string(&golden)
        .unwrap_or_else(|e| panic!("missing golden file {}: {e}", golden.display()));
    assert_eq!(
        produced, expected,
        "a transport path diverged from its recorded fingerprint"
    );
}

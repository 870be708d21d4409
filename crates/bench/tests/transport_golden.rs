//! Golden-record gate for the shared-buffer refactor.
//!
//! `tests/golden/transport_records.jsonl` holds the quick transport
//! campaign as produced *before* switch enqueue accounting moved behind
//! `pmsb_netsim::buffer::SharedPool`. Under the default `static` policy
//! the pool is a pure pass-through, so re-running the same campaign
//! must reproduce those records **byte-identically** — same admission
//! decisions, same marks, same FCTs, same serialized bytes. Regenerate
//! deliberately with
//! `UPDATE_GOLDEN=1 cargo test -p pmsb-bench --test transport_golden`.

use std::fs;
use std::path::PathBuf;

use pmsb_bench::util::SimOpts;
use pmsb_harness::{RunOptions, RECORDS_FILE};

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("transport_records.jsonl")
}

#[test]
fn static_buffer_reproduces_pre_pool_transport_records() {
    let opts = SimOpts::default();
    assert_eq!(
        opts.buffer,
        pmsb_netsim::BufferPolicy::Static,
        "the gate only means something under the default policy"
    );
    let root = std::env::temp_dir().join(format!("pmsb-transport-golden-{}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    let campaign = pmsb_bench::campaigns::campaign_by_name("transport", true, &opts).unwrap();
    let out = campaign
        .run(&RunOptions {
            jobs: Some(2),
            results_root: root.clone(),
            quiet: true,
        })
        .unwrap();
    assert!(
        out.is_success(),
        "transport campaign failed: {:?}",
        out.failures
    );
    let produced = fs::read_to_string(root.join("transport").join(RECORDS_FILE)).unwrap();
    fs::remove_dir_all(&root).ok();

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
        "transport records diverged from the pre-shared-pool baseline — \
         the static buffer policy is no longer a pass-through"
    );
}

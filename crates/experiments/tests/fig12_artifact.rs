//! fig12's JSON artifact: a quick run writes it only where
//! `QUASAR_SHARDS_OUT` says to, so running one from the repo root cannot
//! replace the committed full-scale `BENCH_shards.json`.
//!
//! One test in its own binary, because it moves the process's working
//! directory and environment.

use quasar_experiments::{fig12, Scale};

#[test]
fn quick_run_writes_the_artifact_only_where_asked() {
    let dir = std::env::temp_dir().join(format!("quasar-fig12-artifact-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    std::env::set_current_dir(&dir).expect("enter temp dir");
    std::env::remove_var("QUASAR_SHARDS_OUT");
    // One pinned sweep is enough to reach the write.
    std::env::set_var("QUASAR_SHARDS", "1");

    fig12::run_with(Scale::Quick, 2);
    let left_behind = std::fs::read_dir(&dir).expect("list temp dir").count();
    assert_eq!(
        left_behind, 0,
        "a quick run wrote into its working directory"
    );

    std::env::set_var("QUASAR_SHARDS_OUT", "asked.json");
    let json = fig12::run_with(Scale::Quick, 2).to_json();
    assert_eq!(
        std::fs::read_to_string("asked.json").expect("artifact"),
        json
    );
    std::fs::remove_dir_all(&dir).expect("clean up");
}

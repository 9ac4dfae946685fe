//! Differential coverage for join windowing: each replicated pipeline
//! uploads only the join right-side rows whose keys lie inside the key
//! range of its own spine slice. Right leaves of every windowed shape —
//! a multi-row `PosExplode(REF)` whose chunks lie below, across and above
//! the slices, and a plain `Scan` with keys outside, between and at the
//! edges of the spine keys — under `INNER` and `LEFT` joins, with more
//! replicas than spine rows, are served through `GenesisServer` at
//! shards 1–3 × factors 1–5 × tiers on/off × pushdown on/off on every
//! engine, and checked bit-for-bit against the `genesis::sql` software
//! engine.

use genesis::core::compile::{script_to_plan, Compiler};
use genesis::core::device::{DeviceConfig, TierConfig};
use genesis::core::library::ModuleRegistry;
use genesis::core::serve::{GenesisServer, Request, ServerConfig};
use genesis::sql::exec::{execute_plan, Env};
use genesis::sql::Catalog;
use genesis::types::{Column, DataType, Field, Schema, Table};
use std::time::Duration;

mod common;
use common::{env_lock, with_engine, MATRIX};

/// Zero on-chip quota and 64-byte pages: every scratchpad pages against
/// device DRAM.
fn tiny_tiers() -> TierConfig {
    TierConfig {
        spm_bytes: 0,
        page_bytes: 64,
        dram_bytes: 1 << 20,
        pcie_latency: Duration::from_nanos(40),
        dram_latency: Duration::from_nanos(16),
        ..TierConfig::default()
    }
}

fn table_u32(cols: &[(&str, Vec<u32>)]) -> Table {
    let schema = Schema::new(cols.iter().map(|(n, _)| Field::new(n, DataType::U32)).collect());
    let columns = cols.iter().map(|(_, v)| Column::U32(v.clone())).collect();
    Table::from_columns(schema, columns).unwrap()
}

/// `PAIRS` at positions `pos` (`MPOS = POS + 3 + i % 5`) and a `REF`
/// of disjoint ascending chunks `(start, len)`. Every base value is
/// unique, so a mis-trimmed chunk shows up as a wrong joined value.
fn pairs_ref_catalog(pos: &[u32], chunks: &[(u32, u16)]) -> Catalog {
    let mpos = pos.iter().enumerate().map(|(i, p)| p + 3 + (i as u32 % 5)).collect();
    let starts = chunks.iter().map(|c| c.0).collect();
    let seqs = chunks
        .iter()
        .enumerate()
        .map(|(c, &(_, len))| (0..len).map(|j| c as u16 * 1000 + j).collect())
        .collect();
    let mut cat = Catalog::new();
    cat.register("PAIRS", table_u32(&[("POS", pos.to_vec()), ("MPOS", mpos)]));
    cat.register(
        "REF",
        Table::from_columns(
            Schema::new(vec![Field::new("POS", DataType::U32), Field::new("SEQ", DataType::ListU16)]),
            vec![Column::U32(starts), Column::ListU16(seqs)],
        )
        .unwrap(),
    );
    cat
}

/// Spine `L` (`K` ascending, payload `G`) and right side `R` (`K`
/// ascending, payload `W`).
fn lr_catalog(l: &[u32], r: &[u32]) -> Catalog {
    let mut cat = Catalog::new();
    cat.register("L", table_u32(&[("K", l.to_vec()), ("G", l.iter().map(|k| k % 7).collect())]));
    cat.register("R", table_u32(&[("K", r.to_vec()), ("W", r.iter().map(|k| k * 2 + 1).collect())]));
    cat
}

const REF_JOIN_SQL: &str = "\
    CREATE TABLE RefPos AS\n\
    PosExplode (REF.SEQ, REF.POS)\n\
    FROM REF\n\
    INSERT INTO Joined\n\
    SELECT *\n\
    FROM PAIRS\n\
    INNER JOIN RefPos\n\
    ON PAIRS.POS = RefPos.POS";

const MATE_DISTANCE_SQL: &str = "\
    CREATE TABLE RefPos AS\n\
    PosExplode (REF.SEQ, REF.POS)\n\
    FROM REF\n\
    CREATE TABLE Joined AS\n\
    SELECT *\n\
    FROM PAIRS\n\
    INNER JOIN RefPos\n\
    ON PAIRS.POS = RefPos.POS\n\
    CREATE TABLE Dist AS\n\
    SELECT PAIRS.MPOS - PAIRS.POS AS D\n\
    FROM Joined\n\
    INSERT INTO MateHist\n\
    SELECT D, COUNT(*)\n\
    FROM Dist\n\
    GROUP BY D\n\
    ORDER BY D";

const INNER_SQL: &str = "\
    INSERT INTO Out\n\
    SELECT *\n\
    FROM L\n\
    INNER JOIN R\n\
    ON L.K = R.K";

const LEFT_SQL: &str = "\
    INSERT INTO Out\n\
    SELECT *\n\
    FROM L\n\
    LEFT JOIN R\n\
    ON L.K = R.K";

/// Filters directly above both scans: with pushdown on they are absorbed
/// and the right side is again a bare, windowable leaf; with pushdown off
/// the right side is a `Filter` and streams unwindowed.
const FILTERED_LEFT_SQL: &str = "\
    CREATE TABLE LF AS\n\
    SELECT *\n\
    FROM L\n\
    WHERE G < 5\n\
    CREATE TABLE RF AS\n\
    SELECT *\n\
    FROM R\n\
    WHERE W < 150\n\
    INSERT INTO Out\n\
    SELECT *\n\
    FROM LF\n\
    LEFT JOIN RF\n\
    ON LF.K = RF.K";

fn assert_tables_equal(hw: &Table, sw: &Table, what: &str) {
    let names = |t: &Table| -> Vec<String> {
        t.schema().fields().iter().map(|f| f.name.clone()).collect()
    };
    assert_eq!(names(hw), names(sw), "{what}: schema differs");
    assert_eq!(hw.num_rows(), sw.num_rows(), "{what}: row count differs");
    for r in 0..hw.num_rows() {
        assert_eq!(hw.row(r), sw.row(r), "{what}: row {r} differs");
    }
}

/// Serves `script` over `catalog` across the full configuration matrix
/// and compares every result with the software engine. With pushdown on
/// the compiled plan must report the windowed join, so the sweep cannot
/// pass by silently skipping the window.
fn sweep(script: &str, catalog: &Catalog) {
    let _guard = env_lock();
    let plan = script_to_plan(script, &ModuleRegistry::new()).unwrap();
    let sw = execute_plan(&plan, catalog, &Env::default()).unwrap();
    for tiers in [false, true] {
        for pushdown in [true, false] {
            let mut cfg = DeviceConfig::small().with_pushdown(pushdown);
            if tiers {
                cfg = cfg.with_tiers(tiny_tiers());
            }
            if pushdown {
                let explain = Compiler::new(cfg.clone()).compile(&plan, catalog).unwrap().explain();
                assert!(
                    explain.contains("right side windowed to spine key range"),
                    "the join must be windowed:\n{explain}"
                );
            }
            for shards in 1..=3 {
                let srv = GenesisServer::new(
                    ServerConfig::default().with_devices(2, cfg.clone()).with_shards(shards),
                );
                for factor in 1..=5 {
                    for engine in MATRIX {
                        let req = Request::new("w", plan.clone()).with_replication(factor);
                        let (hw, _) = with_engine(engine, || srv.submit(req, catalog)?.wait())
                            .unwrap_or_else(|e| panic!("run failed: {e}"));
                        let what = format!(
                            "tiers {tiers}, pushdown {pushdown}, {shards} shard(s), \
                             {factor}x, {engine}"
                        );
                        assert_tables_equal(&hw, &sw, &what);
                    }
                }
            }
        }
    }
}

/// `REF` chunks wholly below the spine (2..=7), across slice edges
/// (20..=34, 40..=69, 90..=101), between spine keys (75..=79) and wholly
/// above it (150..=169); some spine keys fall in the gaps between chunks.
const CHUNKS: [(u32, u16); 6] = [(2, 6), (20, 15), (40, 30), (75, 5), (90, 12), (150, 20)];
const SPINE: [u32; 14] = [25, 28, 33, 36, 41, 47, 52, 60, 69, 70, 77, 91, 95, 101];

#[test]
fn multi_row_ref_chunks_below_across_and_above_the_slices() {
    sweep(REF_JOIN_SQL, &pairs_ref_catalog(&SPINE, &CHUNKS));
}

#[test]
fn mate_distance_over_a_multi_row_ref() {
    sweep(MATE_DISTANCE_SQL, &pairs_ref_catalog(&SPINE, &CHUNKS));
}

/// Right keys below the spine (0, 5), at its edges (10, 100), between
/// spine keys (15, 55) and above it (101, 200).
const L_KEYS: [u32; 10] = [10, 20, 30, 40, 50, 60, 70, 80, 90, 100];
const R_KEYS: [u32; 11] = [0, 5, 10, 15, 20, 50, 55, 60, 100, 101, 200];

#[test]
fn plain_scan_right_keys_outside_between_and_at_the_edges() {
    sweep(INNER_SQL, &lr_catalog(&L_KEYS, &R_KEYS));
}

#[test]
fn left_join_keeps_unmatched_left_rows() {
    sweep(LEFT_SQL, &lr_catalog(&L_KEYS, &R_KEYS));
}

#[test]
fn pushed_down_filters_on_both_sides_of_a_left_join() {
    sweep(FILTERED_LEFT_SQL, &lr_catalog(&L_KEYS, &R_KEYS));
}

/// Three spine rows against factors up to 5: some pipelines get an empty
/// spine slice and an empty window, and upload no right rows at all.
#[test]
fn more_replicas_than_spine_rows() {
    sweep(LEFT_SQL, &lr_catalog(&[10, 50, 100], &R_KEYS));
    sweep(REF_JOIN_SQL, &pairs_ref_catalog(&[33, 60, 95], &CHUNKS));
}

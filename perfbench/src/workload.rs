//! The workloads: seeded input data, the SQL each client sends, and the
//! per-client request schedule.

use genesis_datagen::{DatagenConfig, Dataset};
use genesis_sql::Catalog;
use genesis_types::table::reads_to_table;
use genesis_types::{Column, DataType, Field, Schema, Table};

/// Which traffic mix to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Pileup,
    SelectiveScan,
}

impl Kind {
    pub const ALL: [Kind; 2] = [Kind::Pileup, Kind::SelectiveScan];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Pileup => "pileup",
            Kind::SelectiveScan => "selective_scan",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }
}

/// Input size: `Full` is what the benchmark measures; `Tiny` keeps the
/// smoke tests to seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

/// One SQL script. Every script inserts into `Out`.
#[derive(Debug, Clone)]
pub struct Query {
    pub label: &'static str,
    pub sql: String,
}

/// One job: a query run against one dataset of the workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Job {
    pub query: usize,
    pub data: usize,
}

/// A workload's inputs and load shape.
pub struct Workload {
    pub kind: Kind,
    /// Closed-loop client threads; client `c` is tenant `c<c>`.
    pub clients: usize,
    pub shards: usize,
    /// Dataset 0 carries every query.
    pub catalogs: Vec<Catalog>,
    pub queries: Vec<Query>,
    /// Every distinct job a request can carry; each is checked against
    /// the software engine once before timing.
    pub items: Vec<Job>,
}

/// SplitMix64: the benchmark's only source of randomness, so a seed
/// fixes every input.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const COVERAGE_SQL: &str = "\
CREATE TABLE Bases AS
ReadExplode (READS.POS, READS.CIGAR, READS.SEQ)
FROM READS
INSERT INTO Out
SELECT POS, COUNT(*)
FROM Bases
WHERE POS < 65536
GROUP BY POS
ORDER BY POS";

const MATE_DISTANCE_SQL: &str = "\
CREATE TABLE RefPos AS
PosExplode (REF.SEQ, REF.POS)
FROM REF
CREATE TABLE Joined AS
SELECT *
FROM PAIRS
INNER JOIN RefPos
ON PAIRS.POS = RefPos.POS
CREATE TABLE Dist AS
SELECT PAIRS.MPOS - PAIRS.POS AS D
FROM Joined
INSERT INTO Out
SELECT D, COUNT(*)
FROM Dist
GROUP BY D
ORDER BY D";

fn query(label: &'static str, sql: impl Into<String>) -> Query {
    Query {
        label,
        sql: sql.into(),
    }
}

impl Workload {
    pub fn build(kind: Kind, seed: u64, scale: Scale) -> Workload {
        let tiny = scale == Scale::Tiny;
        let (catalogs, queries, clients, shards) = match kind {
            Kind::Pileup => {
                let (regions, reads, len) = if tiny {
                    (2, 300, 8_000)
                } else {
                    (4, 4_000, 60_000)
                };
                let catalogs = (0..regions)
                    .map(|r| pileup_region(mix(seed ^ ((r as u64) << 40)), reads, len))
                    .collect();
                let queries = vec![
                    query("coverage", COVERAGE_SQL),
                    query("mate_distance", MATE_DISTANCE_SQL),
                ];
                (catalogs, queries, 1, 2)
            }
            Kind::SelectiveScan => {
                let rows = if tiny { 20_000 } else { 1_000_000 };
                // Each keeps about 1% of the rows, and pushdown absorbs
                // every conjunct into the scan.
                let queries = vec![
                    query(
                        "projection",
                        "INSERT INTO Out SELECT CHR, POS, X FROM R WHERE X < 100",
                    ),
                    query(
                        "aggregate",
                        format!(
                            "INSERT INTO Out SELECT SUM(X) FROM R WHERE POS < {}",
                            rows / 12
                        ),
                    ),
                    query(
                        "conjunction",
                        "INSERT INTO Out SELECT CHR, POS FROM R WHERE CHR = 2 AND X < 400",
                    ),
                ];
                (vec![coords_catalog(mix(seed), rows)], queries, 2, 1)
            }
        };
        let items = (0..catalogs.len())
            .flat_map(|data| (0..queries.len()).map(move |query| Job { query, data }))
            .collect();
        Workload {
            kind,
            clients,
            shards,
            catalogs,
            queries,
            items,
        }
    }

    /// Client `c`'s endless request schedule: each request is the jobs it
    /// submits back to back before waiting for all of them. A pileup
    /// request is one region's two jobs; clients of selective_scan rotate
    /// through the queries from different starting points.
    pub fn schedule(&self, c: usize) -> impl Iterator<Item = Vec<Job>> + '_ {
        (0..).map(move |k: usize| match self.kind {
            Kind::Pileup => {
                let data = (k + c) % self.catalogs.len();
                (0..self.queries.len())
                    .map(|query| Job { query, data })
                    .collect()
            }
            Kind::SelectiveScan => vec![Job {
                query: (k + c) % self.queries.len(),
                data: 0,
            }],
        })
    }
}

/// One pileup region: a single-chromosome slice of seeded paired-end
/// reads (151 bp, with indels, clips and duplicates), coordinate sorted.
/// `READS` feeds coverage; `PAIRS` holds forward mates with one pair per
/// start position (the Joiner merges unique sorted keys) and `REF` the
/// slice's reference, for mate distance.
fn pileup_region(seed: u64, reads: usize, chrom_len: u32) -> Catalog {
    let cfg = DatagenConfig::default()
        .with_seed(seed)
        .with_chromosomes(1)
        .with_chrom_len(chrom_len)
        .with_reads(reads)
        .with_paired();
    let data = Dataset::generate(&cfg);
    let mut sorted = data.reads;
    sorted.sort_by_key(|r| (r.pos, r.name.clone()));

    let (mut pos, mut mpos) = (Vec::new(), Vec::new());
    for r in &sorted {
        let Some(mate) = r.mate.as_ref() else {
            continue;
        };
        let forward = !r.flags.is_reverse() && mate.pos >= r.pos;
        if forward && pos.last() != Some(&r.pos) {
            pos.push(r.pos);
            mpos.push(mate.pos);
        }
    }
    let chrom = data.genome.iter().next().expect("one chromosome");

    let mut cat = Catalog::new();
    cat.register(
        "READS",
        reads_to_table(&sorted).expect("generated CIGARs pack"),
    );
    cat.register(
        "PAIRS",
        Table::from_columns(
            Schema::new(vec![
                Field::new("POS", DataType::U32),
                Field::new("MPOS", DataType::U32),
            ]),
            vec![Column::U32(pos), Column::U32(mpos)],
        )
        .expect("PAIRS shape"),
    );
    cat.register(
        "REF",
        Table::from_columns(
            Schema::new(vec![
                Field::new("POS", DataType::U32),
                Field::new("SEQ", DataType::ListU8),
            ]),
            vec![
                Column::U32(vec![0]),
                Column::ListU8(vec![chrom.seq.iter().map(|b| b.code()).collect()]),
            ],
        )
        .expect("REF shape"),
    );
    cat
}

/// A reads-shaped table `R(CHR, POS, X)`: four chromosomes, positions
/// ascending within each with seeded gaps (mean 30), and a seeded payload
/// `X` uniform in `0..10000`.
fn coords_catalog(seed: u64, rows: usize) -> Catalog {
    let per_chr = rows.div_ceil(4);
    let (mut chr, mut pos, mut x) = (
        Vec::with_capacity(rows),
        Vec::with_capacity(rows),
        Vec::with_capacity(rows),
    );
    let mut p = 0u32;
    for i in 0..rows {
        if i % per_chr == 0 {
            p = 0;
        }
        let h = mix(seed ^ i as u64);
        p += 1 + (h % 59) as u32;
        chr.push(1 + (i / per_chr) as u8);
        pos.push(p);
        x.push(((h >> 32) % 10_000) as u32);
    }
    let table = Table::from_columns(
        Schema::new(vec![
            Field::new("CHR", DataType::U8),
            Field::new("POS", DataType::U32),
            Field::new("X", DataType::U32),
        ]),
        vec![Column::U8(chr), Column::U32(pos), Column::U32(x)],
    )
    .expect("R shape");
    let mut cat = Catalog::new();
    cat.register("R", table);
    cat
}

//! Hub scaling: sequential `Hub` vs `AsyncHub` fan-out with a worker per
//! shard, swept over shard count × query count on one shared stock
//! stream.
//!
//! This is the smoke-level companion to `experiments hub` (which runs the
//! full 10⁴-query sweep and records `BENCH_hub.json`): small enough to
//! run in a bench pass, shaped the same so regressions in either hub's
//! fan-out loop show up here first.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sap_bench::{hub_query_mix, run_hub_sequential, run_hub_sharded};
use sap_stream::generators::{Dataset, Workload};

const LEN: usize = 2_000;
const CHUNK: usize = 500;

fn bench_hub_scaling(c: &mut Criterion) {
    let data = Dataset::Stock.generate(LEN, 7);
    let mut group = c.benchmark_group("hub_scaling");
    group.measurement_time(std::time::Duration::from_secs(1));
    for queries in [100usize, 1_000] {
        let mix = hub_query_mix(queries);
        group.bench_with_input(
            BenchmarkId::new(format!("sequential/q{queries}"), "1"),
            &mix,
            |b, mix| b.iter(|| run_hub_sequential(mix, &data, CHUNK).updates),
        );
        for shards in [1usize, 2, 4, 8] {
            group.bench_with_input(
                BenchmarkId::new(format!("sharded/q{queries}"), shards),
                &mix,
                |b, mix| b.iter(|| run_hub_sharded(mix, &data, CHUNK, shards).updates),
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_hub_scaling);
criterion_main!(benches);

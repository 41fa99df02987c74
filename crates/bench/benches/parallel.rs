//! Partitioned-executor round throughput: the sharded backend stepped
//! under different worker-thread counts, against batched stepping.
//! `BENCH_parallel.json` (written by the `bench_parallel_json` binary)
//! records the committed comparison at 8 shards / n = 10 000, including
//! the monolithic single-world baseline.

use criterion::{criterion_group, criterion_main, Criterion};
use skippub_core::pubsub::{PubSub, PartitionedBackend, SystemBuilder};
use skippub_core::topics::TopicId;

const TOPICS: u32 = 16;
const SHARDS: usize = 8;

fn system(n: u64, threads: usize) -> PartitionedBackend {
    let mut ps = SystemBuilder::new(0x9A7A11E1)
        .topics(TOPICS)
        .shards(SHARDS)
        .threads(threads)
        .build_sharded();
    for i in 0..n {
        ps.subscribe(TopicId((i % TOPICS as u64) as u32));
    }
    ps.run_rounds(5);
    ps
}

fn bench_parallel_rounds(c: &mut Criterion) {
    let mut g = c.benchmark_group("parallel/run_round");
    g.sample_size(10);
    for n in [1_000u64, 10_000] {
        for threads in [1usize, 2, 8] {
            g.bench_function(format!("n={n} threads={threads} batched"), |b| {
                let mut ps = system(n, threads);
                b.iter(|| ps.run_rounds(1))
            });
        }
        g.bench_function(format!("n={n} threads=8 stepped"), |b| {
            let mut ps = system(n, 8);
            b.iter(|| ps.step())
        });
    }
    g.finish();
}

criterion_group!(benches, bench_parallel_rounds);
criterion_main!(benches);

//! Scale-out study: multi-host and multi-switch fabrics (§IV-C), plus
//! the cluster router one level up.
//!
//! Sweeps hosts 1→8 on a single switch, then fully connected fabrics of
//! 2→16 switches with one host + one device each, printing how makespan
//! scales — the Fig 13(c)/Fig 14 experiment at example scale. Finally
//! shards the embedding tables across whole PIFS nodes behind the
//! cluster router and serves an open-loop stream, showing the fleet's
//! p99 under both placement policies (the `cluster_qps` scenario at
//! example scale).
//!
//! ```bash
//! cargo run --release --example datacenter_scaleout
//! ```

use pifs_rec::prelude::*;

fn main() {
    let model = ModelConfig::rmc2().scaled_down(16);
    let trace = TraceSpec {
        distribution: Distribution::MetaLike {
            reuse_frac: 0.35,
            s: 1.05,
        },
        n_tables: model.n_tables,
        rows_per_table: model.emb_num,
        batch_size: 32,
        n_batches: 8,
        bag_size: model.bag_size,
        seed: 17,
    }
    .generate();

    println!("-- multi-host scaling (one switch, 8 devices) --");
    let mut base = None;
    for hosts in [1u16, 2, 4, 8] {
        let mut cfg = SystemConfig::pifs_rec(model.clone());
        cfg.n_hosts = hosts;
        let m = SlsSystem::new(cfg).run_trace(&trace);
        let baseline = *base.get_or_insert(m.total_ns as f64);
        println!(
            "  {hosts} host(s): {:>10} ns  speedup {:.2}x",
            m.total_ns,
            baseline / m.total_ns as f64
        );
    }

    println!();
    println!("-- multi-switch scaling (one host + one device per switch) --");
    let mut base = None;
    for switches in [1u16, 2, 4, 8, 16] {
        let mut cfg = SystemConfig::pifs_rec(model.clone());
        cfg.n_switches = switches;
        cfg.n_hosts = switches;
        cfg.n_devices = switches.max(8);
        let m = SlsSystem::new(cfg).run_trace(&trace);
        let baseline = *base.get_or_insert(m.total_ns as f64);
        println!(
            "  {switches:>2} switch(es): {:>10} ns  speedup {:.2}x",
            m.total_ns,
            baseline / m.total_ns as f64
        );
    }
    println!();
    println!("Multi-layer instruction forwarding accumulates rows on the");
    println!("switch nearest each device; only sub-results cross the fabric.");

    println!();
    println!("-- cluster router: sharded serving across whole PIFS nodes --");
    // An open-loop stream against the same trace: each query's bags are
    // routed to the shards owning their rows, per-shard partial sums
    // merge exactly (bit-identical for every node count — the cluster
    // layer's invariant), and a query completes when its last partial
    // lands back at the router.
    let queries = (trace.batch_size * trace.batches.len() as u32) as usize;
    let arrivals = ArrivalProcess::Poisson { qps: 4_000_000.0 }.times(queries, 23);
    for policy in [ShardPolicy::TablePartition, ShardPolicy::RowHash] {
        for nodes in [1u16, 2, 4] {
            let cfg = ClusterConfig::new(nodes, policy, SystemConfig::pifs_rec(model.clone()));
            let m = SlsCluster::new(cfg)
                .run_open_loop_streamed(&mut TraceSource::new(&trace, &arrivals));
            println!(
                "  {:>15}, {nodes} node(s): p99 {:>7} ns  fanout {:.2}  checksum {:.3}",
                policy.label(),
                m.latency.percentile(0.99),
                m.mean_fanout,
                m.checksum
            );
        }
    }
    println!();
    println!("Table partitioning keeps whole bags on one node (fan-out ~1 per");
    println!("table); row hashing scatters rows and pays the partial-sum merge");
    println!("hop. The checksum column is identical everywhere: the f64 merge");
    println!("plane is exact, so sharding cannot move a single bit.");

    println!();
    println!("-- failover: fail-stop faults vs hot-row replication --");
    // The same 4-node fleet under seeded fail-stop schedules. Without
    // replicas a dead owner's rows are simply lost (coverage falls);
    // replicating the hottest rows on every shard gives the router
    // somewhere to fail over to, buying availability back.
    for fault in ["none", "failstop:8000", "failstop:32000"] {
        for replicas in [0u32, 64] {
            let spec = FaultSpec::parse(fault).expect("fault spec");
            let mut cfg = ClusterConfig::new(
                4,
                ShardPolicy::RowHash,
                SystemConfig::pifs_rec(model.clone()),
            );
            cfg.hot_rows_per_table = replicas;
            cfg.faults = FaultSchedule::generate(spec, 2024, 4, 1_000_000);
            let m = SlsCluster::new(cfg)
                .run_open_loop_streamed(&mut TraceSource::new(&trace, &arrivals));
            println!(
                "  {fault:>15}, {replicas:>2} replicas/table: avail {:>6.3}  coverage {:>6.3}  failovers {:>4}",
                m.availability(),
                m.mean_coverage,
                m.failovers
            );
        }
    }
    println!();
    println!("Availability degrades as the fail-stop rate rises; the replica");
    println!("column recovers coverage because replicated hot rows survive an");
    println!("owner's death. Full-coverage answers stay bit-identical to the");
    println!("fault-free checksum: dropping a partial never re-associates the");
    println!("surviving exact sums.");
}

use ij_core::rccis::Rccis;
use ij_core::{Algorithm, JoinInput};
use ij_datagen::SynthConfig;
use ij_interval::AllenPredicate::Overlaps;
use ij_mapreduce::{ClusterConfig, Engine};
use ij_query::JoinQuery;

fn hwm() -> (u64, u64) {
    let s = std::fs::read_to_string("/proc/self/status").unwrap();
    let get = |k: &str| s.lines().find(|l| l.starts_with(k)).unwrap().split_whitespace().nth(1).unwrap().parse::<u64>().unwrap();
    (get("VmHWM:"), get("VmRSS:"))
}

fn main() {
    let q = JoinQuery::chain(&[Overlaps, Overlaps]).unwrap();
    let rels = (0..3).map(|r| SynthConfig { t_max: 20_000_000, ..SynthConfig::table1(300_000, 42 + r) }.generate(format!("R{r}"))).collect();
    let input = JoinInput::bind_owned(&q, rels).unwrap();
    let engine = Engine::new(ClusterConfig { reducer_slots: 16, worker_threads: 1, intra_reduce_threads: 1, ..ClusterConfig::default() });
    println!("before {:?}", hwm());
    for i in 0..12 {
        let out = Rccis::new(16).run(&q, &input, &engine).unwrap();
        println!("run {i}: count {} hwm/rss kB {:?}", out.count, hwm());
    }
}

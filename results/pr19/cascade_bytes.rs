use ij_core::cascade::TwoWayCascade;
use ij_core::hybrid::Fstc;
use ij_core::{Algorithm, JoinInput, OutputMode};
use ij_datagen::{Distribution, SynthConfig};
use ij_interval::AllenPredicate::*;
use ij_mapreduce::{ClusterConfig, Engine};
use ij_query::JoinQuery;

#[test]
fn cascade_bytes() {
    let q = JoinQuery::chain(&[Overlaps, Before, Overlaps]).unwrap();
    let rels = (0..4).map(|r| SynthConfig { n: 60, ds: Distribution::Uniform, di: Distribution::Uniform, t_min: 0, t_max: 600, i_min: 1, i_max: 40, seed: 77 + r }.generate(format!("R{}", r + 1))).collect();
    let input = JoinInput::bind_owned(&q, rels).unwrap();
    let engine = Engine::new(ClusterConfig::with_slots(4));
    for mode in [OutputMode::Materialize, OutputMode::Count] {
        let algs: Vec<Box<dyn Algorithm>> = vec![Box::new(TwoWayCascade { mode, ..TwoWayCascade::new(6) }), Box::new(Fstc { mode, ..Fstc::new(6, 4) })];
        for alg in algs {
            let out = alg.run(&q, &input, &engine).unwrap();
            println!("{} {:?} count={}", alg.name(), mode, out.count);
            for c in &out.chain.cycles {
                println!("  {:16} pairs={} shuffle_bytes={} output_records={} output_bytes={} out_rows={}", c.name, c.intermediate_pairs, c.shuffle_bytes, c.output_records, c.output_bytes, c.reducer_loads.iter().map(|l| l.output).sum::<u64>());
            }
        }
    }
}

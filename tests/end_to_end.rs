//! Integration test: the full SpecSyn flow across all crates.
//!
//! spec text → parse/resolve → CDFG → pre-compile/pre-synthesize → SLIF →
//! allocate → partition (several algorithms) → estimate → serialize →
//! reload → identical estimates.

use slif::core::PmRef;
use slif::estimate::{DesignReport, EstimatorConfig, ExecTimeEstimator};
use slif::explore::{greedy_improve, simulated_annealing, AnnealingConfig, Objectives};
use slif::formats::{read_bytes, write_bytes, Encoding, FormatLimits, Strictness};
use slif::frontend::{all_software_partition, allocate_proc_asic, build_design};
use slif::speclang::corpus;
use slif::techlib::TechnologyLibrary;

#[test]
fn partitioners_improve_the_answering_machine() {
    let rs = corpus::by_name("ans").unwrap().load().unwrap();
    let mut design = build_design(&rs, &TechnologyLibrary::proc_asic());
    let arch = allocate_proc_asic(&mut design);
    let start = all_software_partition(&design, arch);

    let main = design.graph().node_by_name("AnsMain").unwrap();
    let t_start = ExecTimeEstimator::new(&design, &start)
        .exec_time(main)
        .unwrap();
    let objectives = Objectives::new()
        .try_with_deadline(main, t_start / 2.0)
        .unwrap();

    let greedy = greedy_improve(&design, start.clone(), &objectives, 30).unwrap();
    let sa = simulated_annealing(
        &design,
        start.clone(),
        &objectives,
        AnnealingConfig::default(),
        9,
    )
    .unwrap();
    for (name, r) in [("greedy", &greedy), ("sa", &sa)] {
        r.partition.validate(&design).unwrap();
        let t = ExecTimeEstimator::new(&design, &r.partition)
            .exec_time(main)
            .unwrap();
        assert!(
            t < t_start,
            "{name}: partitioning should beat all-software ({t} vs {t_start})"
        );
    }
}

#[test]
fn hardware_offload_speeds_up_every_corpus_system() {
    // Moving the heaviest procedure (and everything else fixed) to the
    // ASIC must never slow the system down when the ASIC class is faster,
    // unless communication dominates — greedy search should find *some*
    // improvement for every corpus entry.
    for entry in corpus::all() {
        let rs = entry.load().unwrap();
        let mut design = build_design(&rs, &TechnologyLibrary::proc_asic());
        let arch = allocate_proc_asic(&mut design);
        let start = all_software_partition(&design, arch);
        let r = greedy_improve(&design, start.clone(), &Objectives::new(), 15).unwrap();
        let mut est0 = slif::estimate::IncrementalEstimator::new(&design, start).unwrap();
        let c0 = slif::explore::cost(&mut est0, &Objectives::new()).unwrap();
        assert!(
            r.cost <= c0 + 1e-12,
            "{}: greedy worsened cost {c0} -> {}",
            entry.name,
            r.cost
        );
    }
}

#[test]
fn serialized_designs_estimate_identically() {
    for entry in corpus::all() {
        let rs = entry.load().unwrap();
        let mut design = build_design(&rs, &TechnologyLibrary::proc_asic());
        let arch = allocate_proc_asic(&mut design);
        let part = all_software_partition(&design, arch);

        let text = write_bytes(&design, Some(&part), Encoding::Text).unwrap();
        let read = read_bytes(&text, Strictness::Strict, &FormatLimits::default()).unwrap();
        assert!(read.verified, "{}: content key", entry.name);
        let (design2, part2) = (read.design, read.partition.unwrap());
        assert_eq!(design, design2, "{}: design roundtrip", entry.name);
        assert_eq!(part, part2, "{}: partition roundtrip", entry.name);

        let r1 = DesignReport::compute(&design, &part).unwrap();
        let r2 = DesignReport::compute(&design2, &part2).unwrap();
        assert_eq!(r1, r2, "{}: reports diverge after reload", entry.name);
    }
}

#[test]
fn estimation_modes_bracket_each_other_on_the_corpus() {
    use slif::core::FreqMode;
    for entry in corpus::all() {
        let rs = entry.load().unwrap();
        let mut design = build_design(&rs, &TechnologyLibrary::proc_asic());
        let arch = allocate_proc_asic(&mut design);
        let part = all_software_partition(&design, arch);
        for n in design.graph().node_ids() {
            if !design.graph().node(n).kind().is_process() {
                continue;
            }
            let t = |mode: FreqMode| {
                ExecTimeEstimator::with_config(
                    &design,
                    &part,
                    EstimatorConfig::default().with_mode(mode),
                )
                .exec_time(n)
                .unwrap()
            };
            let (min, avg, max) = (t(FreqMode::Min), t(FreqMode::Average), t(FreqMode::Max));
            assert!(
                min <= avg + 1e-6 && avg <= max + 1e-6,
                "{}: {} min {min} avg {avg} max {max}",
                entry.name,
                design.graph().node(n).name()
            );
        }
    }
}

#[test]
fn concurrency_aware_estimates_never_exceed_sequential() {
    for entry in corpus::all() {
        let rs = entry.load().unwrap();
        let mut design = build_design(&rs, &TechnologyLibrary::proc_asic());
        let arch = allocate_proc_asic(&mut design);
        let part = all_software_partition(&design, arch);
        for n in design.graph().node_ids() {
            if !design.graph().node(n).kind().is_behavior() {
                continue;
            }
            let seq = ExecTimeEstimator::new(&design, &part).exec_time(n).unwrap();
            let conc = ExecTimeEstimator::with_config(
                &design,
                &part,
                EstimatorConfig::default().with_concurrency_aware(true),
            )
            .exec_time(n)
            .unwrap();
            assert!(conc <= seq + 1e-6, "{}: {conc} > {seq}", entry.name);
        }
    }
}

#[test]
fn sharing_aware_hw_size_is_bounded_by_plain_sum() {
    let rs = corpus::by_name("fuzzy").unwrap().load().unwrap();
    let mut design = build_design(&rs, &TechnologyLibrary::proc_asic());
    let arch = allocate_proc_asic(&mut design);
    // All behaviors on the ASIC.
    let mut part = all_software_partition(&design, arch);
    for n in design.graph().node_ids() {
        if design.graph().node(n).kind().is_behavior() {
            part.assign_node(n, PmRef::Processor(arch.asic));
        }
    }
    let asic = PmRef::Processor(arch.asic);
    let plain = slif::estimate::size(&design, &part, asic).unwrap();
    let shared0 = slif::estimate::size_shared(&design, &part, asic, 0.0).unwrap();
    let shared1 = slif::estimate::size_shared(&design, &part, asic, 1.0).unwrap();
    assert!(shared0 < plain, "perfect sharing must shrink the estimate");
    assert_eq!(shared1, plain, "no sharing degenerates to Equation 4");
}

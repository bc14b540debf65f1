//! Seeded specification-family generator.
//!
//! Every generated specification comes with the object (node) and
//! channel counts the front end must build from it. The counts are
//! derived here by construction, from the same choices that wrote the
//! text, so they are an oracle independent of the program: a node per
//! declared behavior and variable, and a channel per distinct object a
//! behavior reads, writes, calls or sends to.
//!
//! Sizes are fixed per family; the seed only picks wiring and constants,
//! so different seeds ask for about the same amount of work.

use std::collections::BTreeSet;
use std::fmt::Write as _;

/// SplitMix64: a small, fixed PRNG, so inputs never depend on another
/// crate's generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x5eed_51f0_b3c4_a7d1)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below(hi - lo + 1)
    }

    /// A child generator for one named sub-stream.
    pub fn fork(&mut self, salt: u64) -> Rng {
        Rng::new(self.next_u64() ^ salt.wrapping_mul(0x2545_f491_4f6c_dd1d))
    }
}

/// The five specification families.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Many processes sharing scalar variables: the race and dataflow
    /// lints have the most to do.
    ProcessHeavy,
    /// Processes driving deep procedure call chains.
    CallChain,
    /// Hub processes each calling many leaf procedures.
    WideFanOut,
    /// A ring of processes passing messages.
    MessagePassing,
    /// Processes looping over shared arrays.
    ArrayHeavy,
}

impl Family {
    pub fn name(self) -> &'static str {
        match self {
            Family::ProcessHeavy => "process_heavy",
            Family::CallChain => "call_chain",
            Family::WideFanOut => "wide_fanout",
            Family::MessagePassing => "message_passing",
            Family::ArrayHeavy => "array_heavy",
        }
    }
}

/// Places in the text an edit script may change. Each is a byte range
/// of the generated source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sites {
    /// A process's local loop bound (digits only): changing it changes
    /// that process's annotations but not the graph.
    pub loop_bounds: Vec<(usize, usize)>,
    /// A read of a global variable in a process body, with a variable
    /// that process does not access yet: swapping them changes a
    /// channel.
    pub var_reads: Vec<(usize, usize, String)>,
    /// The `;` ending a process's `wait`: deleting it breaks the parse.
    pub wait_semis: Vec<usize>,
}

/// One generated specification and its expected build.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GenSpec {
    pub text: String,
    /// Design nodes: behaviors plus variables.
    pub nodes: usize,
    /// Access-graph channels.
    pub channels: usize,
    pub sites: Sites,
}

/// Writes the text while counting what it declares and accesses.
struct Builder {
    text: String,
    nodes: usize,
    channels: usize,
    /// Targets accessed by the behavior being written.
    targets: BTreeSet<String>,
    sites: Sites,
}

impl Builder {
    fn new(system: &str) -> Self {
        Self {
            text: format!("system {system};\n"),
            nodes: 0,
            channels: 0,
            targets: BTreeSet::new(),
            sites: Sites {
                loop_bounds: Vec::new(),
                var_reads: Vec::new(),
                wait_semis: Vec::new(),
            },
        }
    }

    fn var(&mut self, name: &str, ty: &str) {
        let _ = writeln!(self.text, "var {name} : {ty};");
        self.nodes += 1;
    }

    fn begin(&mut self, head: &str) {
        let _ = writeln!(self.text, "{head} {{");
        self.nodes += 1;
        self.targets.clear();
    }

    /// One body line; `access` names the objects it touches.
    fn line(&mut self, line: &str, access: &[&str]) {
        let _ = writeln!(self.text, "  {line}");
        self.targets.extend(access.iter().map(|s| (*s).to_owned()));
    }

    /// `t = <var> + <c>;`, recording the read as a topology edit site
    /// with `spare` as the replacement variable.
    fn read_site(&mut self, var: &str, c: usize, spare: String) {
        self.text.push_str("  t = ");
        let at = self.text.len();
        let _ = writeln!(self.text, "{var} + {c};");
        self.sites.var_reads.push((at, at + var.len(), spare));
        let object = var.split('[').next().unwrap_or(var);
        self.targets.insert(object.to_owned());
    }

    /// The local loop and `wait` every process ends with.
    fn process_tail(&mut self, rng: &mut Rng) {
        self.text.push_str("  for i in 0 .. ");
        let at = self.text.len();
        let bound = rng.range(2, 9).to_string();
        self.text.push_str(&bound);
        self.sites.loop_bounds.push((at, at + bound.len()));
        self.text.push_str(" {\n    t = t + i;\n  }\n");
        let _ = write!(self.text, "  wait {}", rng.range(1, 9));
        self.sites.wait_semis.push(self.text.len());
        self.text.push_str(";\n");
    }

    fn end(&mut self) {
        self.text.push_str("}\n");
        self.channels += self.targets.len();
    }

    fn finish(self) -> GenSpec {
        GenSpec {
            text: self.text,
            nodes: self.nodes,
            channels: self.channels,
            sites: self.sites,
        }
    }
}

/// A variable index in `0..n` other than each of `not`.
fn other(rng: &mut Rng, n: usize, not: &[usize]) -> usize {
    loop {
        let x = rng.below(n);
        if !not.contains(&x) {
            return x;
        }
    }
}

/// Generates a `family` specification of about `scale` design nodes.
pub fn generate(family: Family, scale: usize, rng: &mut Rng, system: &str) -> GenSpec {
    let mut b = Builder::new(system);
    match family {
        Family::ProcessHeavy => {
            let procs = (scale / 2).max(2);
            let vars = scale.saturating_sub(procs).max(3);
            for v in 0..vars {
                b.var(&format!("v{v}"), "int<16>");
            }
            for p in 0..procs {
                let a = rng.below(vars);
                let w = other(rng, vars, &[a]);
                let spare = other(rng, vars, &[a, w]);
                b.begin(&format!("process P{p}"));
                b.line("var t : int<16>;", &[]);
                b.read_site(&format!("v{a}"), rng.range(1, 9), format!("v{spare}"));
                let (k, wv) = (rng.range(1, 30), format!("v{w}"));
                b.line(
                    &format!("if t > {k} {{ {wv} = t; }} else {{ {wv} = 0; }}"),
                    &[&wv],
                );
                b.process_tail(rng);
                b.end();
            }
        }
        Family::CallChain => {
            const DEPTH: usize = 8;
            let chains = (scale / (DEPTH + 3)).max(1);
            let vars = 2 * chains;
            for v in 0..vars {
                b.var(&format!("c{v}"), "int<16>");
            }
            for ch in 0..chains {
                // Callees first, so every call names a declared procedure.
                for d in (0..DEPTH).rev() {
                    let cv = format!("c{}", rng.below(vars));
                    b.begin(&format!("proc F{ch}_{d}(x : int<16>)"));
                    b.line(&format!("{cv} = {cv} + x;"), &[&cv]);
                    if d + 1 < DEPTH {
                        let callee = format!("F{ch}_{}", d + 1);
                        b.line(
                            &format!("call {callee}(x + {});", rng.range(1, 5)),
                            &[&callee],
                        );
                    }
                    b.end();
                }
                let a = rng.below(vars);
                let spare = other(rng, vars, &[a]);
                b.begin(&format!("process C{ch}"));
                b.line("var t : int<16>;", &[]);
                b.read_site(&format!("c{a}"), rng.range(1, 9), format!("c{spare}"));
                let callee = format!("F{ch}_0");
                b.line(&format!("call {callee}(t);"), &[&callee]);
                b.process_tail(rng);
                b.end();
            }
        }
        Family::WideFanOut => {
            const FAN: usize = 16;
            let hubs = (scale / (FAN + 5)).max(1);
            let vars = 4 * hubs;
            for v in 0..vars {
                b.var(&format!("w{v}"), "int<16>");
            }
            for h in 0..hubs {
                for k in 0..FAN {
                    let r = rng.below(vars);
                    let w = other(rng, vars, &[r]);
                    let (rv, wv) = (format!("w{r}"), format!("w{w}"));
                    b.begin(&format!("proc H{h}_{k}()"));
                    b.line(&format!("{wv} = {rv} + {};", rng.range(1, 9)), &[&rv, &wv]);
                    b.end();
                }
                let a = rng.below(vars);
                let spare = other(rng, vars, &[a]);
                b.begin(&format!("process Hub{h}"));
                b.line("var t : int<16>;", &[]);
                b.read_site(&format!("w{a}"), rng.range(1, 9), format!("w{spare}"));
                for k in 0..FAN {
                    let callee = format!("H{h}_{k}");
                    b.line(&format!("call {callee}();"), &[&callee]);
                }
                b.process_tail(rng);
                b.end();
            }
        }
        Family::MessagePassing => {
            let procs = (scale / 2).max(2);
            for v in 0..procs {
                b.var(&format!("m{v}"), "int<16>");
            }
            for p in 0..procs {
                let a = rng.below(procs);
                let w = other(rng, procs, &[a]);
                let spare = other(rng, procs, &[a, w]);
                let (wv, next) = (format!("m{w}"), format!("M{}", (p + 1) % procs));
                b.begin(&format!("process M{p}"));
                b.line("var t : int<16>;", &[]);
                b.line("var r : int<16>;", &[]);
                b.line("receive r;", &[]);
                b.read_site(&format!("m{a}"), rng.range(1, 9), format!("m{spare}"));
                b.line(&format!("{wv} = t + r;"), &[&wv]);
                b.line(&format!("send {next} {wv};"), &[&wv, &next]);
                b.process_tail(rng);
                b.end();
            }
        }
        Family::ArrayHeavy => {
            const LEN: usize = 32;
            let procs = (2 * scale / 3).max(2);
            let arrays = (scale - procs).max(3);
            for a in 0..arrays {
                b.var(&format!("a{a}"), &format!("int<8>[{LEN}]"));
            }
            for p in 0..procs {
                let x = rng.below(arrays);
                let y = other(rng, arrays, &[x]);
                let spare = other(rng, arrays, &[x, y]);
                let (xv, yv) = (format!("a{x}"), format!("a{y}"));
                b.begin(&format!("process A{p}"));
                b.line("var t : int<16>;", &[]);
                b.line("var s : int<16>;", &[]);
                b.line("s = 0;", &[]);
                let n = rng.range(8, LEN - 1);
                b.line(&format!("for j in 0 .. {n} {{"), &[]);
                b.line(&format!("  s = s + {xv}[j];"), &[&xv]);
                b.line(&format!("  {yv}[j] = s;"), &[&yv]);
                b.line("}", &[]);
                b.read_site(
                    &format!("{yv}[{}]", rng.below(LEN)),
                    1,
                    format!("a{spare}[0]"),
                );
                b.process_tail(rng);
                b.end();
            }
        }
    }
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [Family; 5] = [
        Family::ProcessHeavy,
        Family::CallChain,
        Family::WideFanOut,
        Family::MessagePassing,
        Family::ArrayHeavy,
    ];

    #[test]
    fn same_seed_gives_identical_specs_and_counts() {
        for family in ALL {
            let a = generate(family, 300, &mut Rng::new(42), "S");
            let b = generate(family, 300, &mut Rng::new(42), "S");
            assert_eq!(a, b, "{}", family.name());
            let c = generate(family, 300, &mut Rng::new(43), "S");
            assert_ne!(a.text, c.text, "{}: the seed must matter", family.name());
        }
    }

    #[test]
    fn counts_match_the_front_end() {
        use slif_frontend::build_design;
        use slif_techlib::TechnologyLibrary;
        for family in ALL {
            for seed in 0..3 {
                let g = generate(family, 200, &mut Rng::new(seed), "S");
                let rs = slif_speclang::parse_and_resolve(&g.text)
                    .unwrap_or_else(|e| panic!("{}: {e}\n{}", family.name(), g.text));
                let d = build_design(&rs, &TechnologyLibrary::proc_asic());
                assert_eq!(d.graph().node_count(), g.nodes, "{} nodes", family.name());
                assert_eq!(
                    d.graph().channel_count(),
                    g.channels,
                    "{} channels",
                    family.name()
                );
            }
        }
    }

    #[test]
    fn edit_sites_point_at_what_they_claim() {
        for family in ALL {
            let g = generate(family, 120, &mut Rng::new(7), "S");
            assert!(!g.sites.loop_bounds.is_empty());
            for &(s, e) in &g.sites.loop_bounds {
                assert!(g.text[s..e].bytes().all(|b| b.is_ascii_digit()));
            }
            for (s, e, spare) in &g.sites.var_reads {
                assert!(g.text[*s..*e].starts_with(&spare[..1]), "{}", family.name());
            }
            for &at in &g.sites.wait_semis {
                assert_eq!(&g.text[at..=at], ";");
            }
        }
    }
}

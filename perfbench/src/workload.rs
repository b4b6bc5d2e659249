//! The four workloads as seeded request streams. Each request carries the
//! reply the checker expects, derived from the generator's construction.

use std::collections::VecDeque;

use crate::gen::{self, ColdSource, Inst, Label, Rng};

/// A traffic mix; see `BENCHMARK.json` for why each exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Disguised copies of the four duplicate-heavy bases; all cache hits
    /// after the warm phase.
    DupWarm,
    /// Distinct single `wp` questions; every one a cache miss.
    ColdWp,
    /// `batch` ops of [`BATCH_FRESH`] fresh items plus [`BATCH_DUPS`]
    /// in-batch disguised repeats.
    BatchCold,
    /// Σ-session scripts interleaved with `deps` redundancy requests.
    SessionChurn,
}

/// Fresh items per batch.
pub const BATCH_FRESH: usize = 3;
/// In-batch disguised repeats per batch.
pub const BATCH_DUPS: usize = 1;

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::DupWarm,
        Workload::ColdWp,
        Workload::BatchCold,
        Workload::SessionChurn,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::DupWarm => "dup_warm",
            Workload::ColdWp => "cold_wp",
            Workload::BatchCold => "batch_cold",
            Workload::SessionChurn => "session_churn",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// What a correct reply looks like.
#[derive(Debug, Clone)]
pub enum Expect {
    /// A `wp` verdict; `cached` is checked when known.
    Wp {
        label: Label,
        cached: Option<bool>,
    },
    /// A `batch` reply: per-item labels and the in-batch accounting.
    /// `solved` counts the classes new to the run; repeats of earlier
    /// classes are hits, unless their first ask came back `unknown`.
    Batch {
        labels: Vec<Label>,
        unique: usize,
        solved: usize,
    },
    /// A `deps` reply: the redundancy word of each TD in file order.
    Deps {
        words: Vec<&'static str>,
    },
    Open,
    Close,
    /// `session_add_dep` / `session_remove_dep` with the new Σ size.
    Resize {
        deps: usize,
    },
    /// `session_ask` with its verdict, closed-form rows and cache flag.
    Ask {
        label: Label,
        rows: Option<usize>,
        cached: bool,
    },
}

/// One request line and its expected reply.
#[derive(Debug, Clone)]
pub struct Req {
    pub id: String,
    pub line: String,
    pub expect: Expect,
    /// Implication questions this request asks.
    pub questions: u64,
    /// The instances of a `wp`/`batch` request, in item order.
    pub insts: Vec<Inst>,
}

/// A workload's deterministic request stream.
#[derive(Debug)]
pub struct Stream {
    workload: Workload,
    rng: Rng,
    seq: u64,
    cold: ColdSource,
    script: VecDeque<Req>,
    scripts: u64,
    cycle: Vec<u8>,
}

impl Stream {
    pub fn new(workload: Workload, seed: u64) -> Self {
        Self {
            workload,
            rng: Rng::new(seed, 1),
            seq: 0,
            cold: ColdSource::new(),
            script: VecDeque::new(),
            scripts: 0,
            cycle: Vec::new(),
        }
    }

    /// Cold draws that had to repeat an earlier class.
    pub fn repeats(&self) -> u64 {
        self.cold.repeats
    }

    fn next_id(&mut self) -> String {
        self.seq += 1;
        format!("r{}", self.seq)
    }

    fn wp(&mut self, inst: Inst, cached: Option<bool>) -> Req {
        let id = self.next_id();
        let fields = inst.render(&mut self.rng);
        Req {
            line: format!("{{\"id\":\"{id}\",\"op\":\"wp\",{fields}}}"),
            id,
            expect: Expect::Wp {
                label: inst.label,
                cached,
            },
            questions: 1,
            insts: vec![inst],
        }
    }

    /// The warm phase: one request per duplicate-heavy base (dup_warm
    /// only), each a first-time solve. Its disguise does not depend on the
    /// seed: the solve cost of a base varies with its equation order, and
    /// set-up time should not.
    pub fn prewarm(&mut self) -> Vec<Req> {
        if self.workload != Workload::DupWarm {
            return Vec::new();
        }
        let seeded = std::mem::replace(&mut self.rng, Rng::new(0, 0));
        let warm = (0..4)
            .map(|b| self.wp(gen::dup_base(b), Some(false)))
            .collect();
        self.rng = seeded;
        warm
    }

    pub fn next_req(&mut self) -> Req {
        match self.workload {
            Workload::DupWarm => {
                // Each cycle of four visits every base once, in a shuffled
                // order, so the mix is the same for every seed.
                if self.cycle.is_empty() {
                    self.cycle = vec![0, 1, 2, 3];
                    self.rng.shuffle(&mut self.cycle);
                }
                let b = self.cycle.pop().expect("refilled above");
                self.wp(gen::dup_base(b), Some(true))
            }
            Workload::ColdWp => {
                // A repeated class is a cache hit unless its first ask
                // came back `unknown`, so only fresh ones are checked.
                let (inst, fresh) = self.cold.next(&mut self.rng);
                self.wp(inst, fresh.then_some(false))
            }
            Workload::BatchCold => self.batch(),
            Workload::SessionChurn => {
                if self.script.is_empty() {
                    self.session_script();
                }
                self.script.pop_front().expect("a script has requests")
            }
        }
    }

    fn batch(&mut self) -> Req {
        let mut insts = Vec::with_capacity(BATCH_FRESH + BATCH_DUPS);
        let mut fresh: Vec<Vec<u8>> = Vec::new();
        for _ in 0..BATCH_FRESH {
            let (inst, new) = self.cold.next(&mut self.rng);
            if new {
                fresh.push(inst.canon());
            }
            insts.push(inst);
        }
        for _ in 0..BATCH_DUPS {
            let copy = insts[self.rng.below(BATCH_FRESH)].clone();
            let at = self.rng.below(insts.len() + 1);
            insts.insert(at, copy);
        }
        let mut classes: Vec<Vec<u8>> = insts.iter().map(Inst::canon).collect();
        classes.sort();
        classes.dedup();
        let unique = classes.len();
        let id = self.next_id();
        let items: Vec<String> = insts
            .iter()
            .enumerate()
            .map(|(i, inst)| format!("{{\"id\":\"i{i}\",{}}}", inst.render(&mut self.rng)))
            .collect();
        Req {
            line: format!(
                "{{\"id\":\"{id}\",\"op\":\"batch\",\"items\":[{}]}}",
                items.join(",")
            ),
            id,
            expect: Expect::Batch {
                labels: insts.iter().map(|i| i.label).collect(),
                unique,
                solved: fresh.len(),
            },
            questions: insts.len() as u64,
            insts,
        }
    }

    fn op(&mut self, body: String, expect: Expect, questions: u64) {
        let id = self.next_id();
        self.script.push_back(Req {
            line: format!("{{\"id\":\"{id}\",{body}}}"),
            id,
            expect,
            questions,
            insts: Vec::new(),
        });
    }

    fn deps(&mut self) {
        let n = 3 + self.rng.below(3) as u32;
        let (text, words) = gen::join_family_text(n, &mut self.rng);
        let q = words.len() as u64;
        self.op(
            format!("\"op\":\"deps\",\"text\":\"{text}\""),
            Expect::Deps { words },
            q,
        );
    }

    /// open → add pt → ask refuted goal → ask implied goal → add an
    /// isomorphic clone (drops the refuted verdict) → ask both → remove the
    /// clone (drops implied verdicts and parked chases) → ask both →
    /// close, with a `deps` request after the 4th, 8th and 11th op.
    fn session_script(&mut self) {
        self.scripts += 1;
        let s = self.scripts;
        let sid = format!("s{s}");
        let k = 3 + self.rng.below(4) as u32;
        let rows = gen::chain_goal_rows(k);
        let session = |op: &str| format!("\"op\":\"{op}\",\"session\":\"{sid}\"");
        let mut tag = || self.rng.next_u64() & 0xFFFF;
        let (t1, t2) = (tag(), tag());
        let goal_tags: Vec<u64> = (0..6).map(|_| tag()).collect();
        let schema = gen::SESSION_SCHEMA;
        let add = |name: &str, t: u64| {
            format!(
                "{},\"text\":\"{schema}{}\"",
                session("session_add_dep"),
                gen::pt_text(name, t)
            )
        };
        let ask = |guarded: bool, t: u64| {
            let name = if guarded { "gr" } else { "gi" };
            format!(
                "{},\"text\":\"{schema}{}\"",
                session("session_ask"),
                gen::chain_goal_text(name, k, guarded, t)
            )
        };
        let refuted = |cached| Expect::Ask {
            label: Label::Refuted,
            rows: Some(rows),
            cached,
        };
        let implied = |cached| Expect::Ask {
            label: Label::Implied,
            rows: None,
            cached,
        };
        let (p, q) = (format!("p{s}"), format!("q{s}"));
        self.op(session("session_open"), Expect::Open, 0);
        self.op(add(&p, t1), Expect::Resize { deps: 1 }, 0);
        self.op(ask(true, goal_tags[0]), refuted(false), 1);
        self.op(ask(false, goal_tags[1]), implied(false), 1);
        self.deps();
        self.op(add(&q, t2), Expect::Resize { deps: 2 }, 0);
        self.op(ask(true, goal_tags[2]), refuted(false), 1);
        self.op(ask(false, goal_tags[3]), implied(true), 1);
        self.op(
            format!("{},\"name\":\"{q}\"", session("session_remove_dep")),
            Expect::Resize { deps: 1 },
            0,
        );
        self.deps();
        self.op(ask(false, goal_tags[4]), implied(false), 1);
        self.op(ask(true, goal_tags[5]), refuted(true), 1);
        self.op(session("session_close"), Expect::Close, 0);
        self.deps();
    }
}

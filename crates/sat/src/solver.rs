//! Conflict-driven clause learning with two-watched-literal unit propagation.

use std::fmt;

/// A propositional variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Var(pub u32);

impl Var {
    /// Dense index of the variable.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The positive literal of this variable.
    pub fn positive(self) -> Lit {
        Lit(self.0 << 1)
    }

    /// The negative literal of this variable.
    pub fn negative(self) -> Lit {
        Lit(self.0 << 1 | 1)
    }

    /// The literal of this variable with the given phase.
    pub fn lit(self, phase: bool) -> Lit {
        if phase {
            self.positive()
        } else {
            self.negative()
        }
    }
}

/// A literal: a variable or its negation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Lit(u32);

impl Lit {
    /// The literal's variable.
    pub fn var(self) -> Var {
        Var(self.0 >> 1)
    }

    /// `true` for a negated literal.
    pub fn is_negative(self) -> bool {
        self.0 & 1 == 1
    }

    /// The complementary literal.
    pub fn complement(self) -> Lit {
        Lit(self.0 ^ 1)
    }

    fn code(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_negative() {
            write!(f, "¬x{}", self.var().0)
        } else {
            write!(f, "x{}", self.var().0)
        }
    }
}

/// A formula in conjunctive normal form.
#[derive(Debug, Clone, Default)]
pub struct Cnf {
    variables: u32,
    clauses: Vec<Vec<Lit>>,
}

impl Cnf {
    /// An empty formula (trivially satisfiable).
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates a fresh variable.
    pub fn fresh(&mut self) -> Var {
        let v = Var(self.variables);
        self.variables += 1;
        v
    }

    /// Number of variables allocated.
    pub fn variable_count(&self) -> usize {
        self.variables as usize
    }

    /// Number of clauses.
    pub fn clause_count(&self) -> usize {
        self.clauses.len()
    }

    /// Adds a clause (a disjunction of literals). An empty clause makes the
    /// formula unsatisfiable.
    ///
    /// # Panics
    ///
    /// Panics if a literal references an unallocated variable.
    pub fn clause(&mut self, literals: impl IntoIterator<Item = Lit>) {
        let clause: Vec<Lit> = literals.into_iter().collect();
        for &lit in &clause {
            assert!(lit.var().0 < self.variables, "literal {lit} out of range");
        }
        self.clauses.push(clause);
    }
}

/// The solver's verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// Satisfiable, with one model (`model[v]` = value of variable `v`).
    Sat(Vec<bool>),
    /// Proven unsatisfiable.
    Unsat,
}

/// Marks a variable assigned by a decision or at level 0 from a unit clause.
const NO_REASON: u32 = u32::MAX;
/// Marks a variable that is not in the branching heap.
const NOT_QUEUED: u32 = u32::MAX;
/// Conflicts per unit of the Luby restart sequence.
const RESTART_UNIT: u64 = 100;
/// VSIDS decay: after each conflict the bump grows by `1 / ACTIVITY_DECAY`,
/// which ages every earlier bump by that factor.
const ACTIVITY_DECAY: f64 = 0.95;
/// Activities are rescaled before they can overflow.
const ACTIVITY_LIMIT: f64 = 1e100;

/// A clause watching a literal, with another of its literals: while that
/// blocker is true the clause is satisfied and need not be visited.
#[derive(Debug, Clone, Copy)]
struct Watch {
    clause: u32,
    blocker: Lit,
}

/// Unassigned variables by VSIDS activity: a binary max-heap whose ties go
/// to the lower variable index.
#[derive(Debug)]
struct ActivityHeap {
    activity: Vec<f64>,
    /// What the next bump adds.
    increment: f64,
    heap: Vec<u32>,
    /// Each variable's index in `heap`, or `NOT_QUEUED`.
    position: Vec<u32>,
}

impl ActivityHeap {
    fn new(activity: Vec<f64>) -> Self {
        let count = activity.len();
        let mut heap = Self {
            activity,
            increment: 1.0,
            heap: Vec::with_capacity(count),
            position: vec![NOT_QUEUED; count],
        };
        for var in 0..count as u32 {
            heap.insert(var);
        }
        heap
    }

    fn before(&self, a: u32, b: u32) -> bool {
        let (x, y) = (self.activity[a as usize], self.activity[b as usize]);
        x > y || (x == y && a < b)
    }

    fn insert(&mut self, var: u32) {
        if self.position[var as usize] == NOT_QUEUED {
            self.heap.push(var);
            self.sift_up(self.heap.len() - 1);
        }
    }

    fn pop(&mut self) -> Option<u32> {
        let top = *self.heap.first()?;
        let last = self.heap.pop().expect("non-empty");
        self.position[top as usize] = NOT_QUEUED;
        if last != top {
            self.heap[0] = last;
            self.sift_down(0);
        }
        Some(top)
    }

    fn bump(&mut self, var: usize) {
        self.activity[var] += self.increment;
        if self.activity[var] > ACTIVITY_LIMIT {
            for activity in &mut self.activity {
                *activity /= ACTIVITY_LIMIT;
            }
            self.increment /= ACTIVITY_LIMIT;
            // Scaling can round distinct activities together, which
            // changes their order: restore the heap property everywhere.
            for index in (0..self.heap.len() / 2).rev() {
                self.sift_down(index);
            }
        }
        let position = self.position[var];
        if position != NOT_QUEUED {
            self.sift_up(position as usize);
        }
    }

    fn decay(&mut self) {
        self.increment /= ACTIVITY_DECAY;
    }

    fn sift_up(&mut self, mut index: usize) {
        let var = self.heap[index];
        while index > 0 {
            let parent = (index - 1) / 2;
            if !self.before(var, self.heap[parent]) {
                break;
            }
            self.place(index, self.heap[parent]);
            index = parent;
        }
        self.place(index, var);
    }

    fn sift_down(&mut self, mut index: usize) {
        let var = self.heap[index];
        loop {
            let left = 2 * index + 1;
            if left >= self.heap.len() {
                break;
            }
            let right = left + 1;
            let child = if right < self.heap.len() && self.before(self.heap[right], self.heap[left])
            {
                right
            } else {
                left
            };
            if !self.before(self.heap[child], var) {
                break;
            }
            self.place(index, self.heap[child]);
            index = child;
        }
        self.place(index, var);
    }

    fn place(&mut self, index: usize, var: u32) {
        self.heap[index] = var;
        self.position[var as usize] = index as u32;
    }
}

/// The `index`-th term (from 0) of the Luby sequence 1, 1, 2, 1, 1, 2, 4, …
fn luby(mut index: u64) -> u64 {
    let (mut size, mut exponent) = (1u64, 0u32);
    while size < index + 1 {
        exponent += 1;
        size = 2 * size + 1;
    }
    while size - 1 != index {
        size = (size - 1) >> 1;
        exponent -= 1;
        index %= size;
    }
    1 << exponent
}

/// A CDCL solver over one formula.
#[derive(Debug)]
pub struct Solver {
    /// The formula's clauses, then learned ones (never deleted). A clause
    /// that is a variable's reason keeps the implied literal at position 0;
    /// positions 0 and 1 are the watched literals.
    clauses: Vec<Vec<Lit>>,
    /// For each literal code, the clauses watching it.
    watches: Vec<Vec<Watch>>,
    /// Assignment: `None` unassigned.
    assignment: Vec<Option<bool>>,
    /// Decision level of each assigned variable.
    level: Vec<u32>,
    /// The clause that implied each assigned variable, or `NO_REASON`.
    reason: Vec<u32>,
    /// Assignment trail; `levels[k]` is where decision level `k + 1` starts.
    trail: Vec<Lit>,
    levels: Vec<usize>,
    queue_head: usize,
    /// Each variable's last value, which a decision on it reuses.
    saved_phase: Vec<bool>,
    order: ActivityHeap,
    /// Conflict-analysis scratch: variables already in the clause being
    /// derived.
    seen: Vec<bool>,
    /// The formula holds an empty clause or contradicting unit clauses.
    contradiction: bool,
    conflicts: u64,
    restarts: u64,
    /// Conflicts that jumped back over more than one decision level.
    backjumps: u64,
}

impl Solver {
    /// Prepares a solver for `cnf`.
    pub fn new(cnf: Cnf) -> Self {
        let variables = cnf.variable_count();
        let mut clauses = Vec::with_capacity(cnf.clauses.len());
        let mut occurrences = vec![0.0f64; variables];
        for mut clause in cnf.clauses {
            // Duplicate literals would be watched twice; a tautology is
            // always satisfied.
            let mut kept = 0;
            let mut tautology = false;
            for next in 0..clause.len() {
                let lit = clause[next];
                if clause[..kept].contains(&lit.complement()) {
                    tautology = true;
                    break;
                }
                if !clause[..kept].contains(&lit) {
                    clause[kept] = lit;
                    kept += 1;
                }
            }
            if tautology {
                continue;
            }
            clause.truncate(kept);
            for &lit in &clause {
                occurrences[lit.var().index()] += 1.0;
            }
            clauses.push(clause);
        }
        let mut solver = Self {
            clauses: Vec::new(),
            watches: vec![Vec::new(); variables * 2],
            assignment: vec![None; variables],
            level: vec![0; variables],
            reason: vec![NO_REASON; variables],
            trail: Vec::new(),
            levels: Vec::new(),
            queue_head: 0,
            saved_phase: vec![false; variables],
            order: ActivityHeap::new(occurrences),
            seen: vec![false; variables],
            contradiction: false,
            conflicts: 0,
            restarts: 0,
            backjumps: 0,
        };
        for clause in clauses {
            match clause[..] {
                [] => solver.contradiction = true,
                [only] => match solver.value(only) {
                    None => solver.assign(only, NO_REASON),
                    Some(true) => {}
                    Some(false) => solver.contradiction = true,
                },
                _ => {
                    solver.add_clause(clause);
                }
            }
        }
        solver
    }

    /// Like [`solve`](Self::solve), but gives up after `max_conflicts`
    /// conflicts, returning `None` — for callers that prefer "unknown" over
    /// unbounded runtime on hard instances. The search does not depend on
    /// the budget, so a verdict reached within it is [`solve`](Self::solve)'s.
    pub fn solve_with_budget(mut self, max_conflicts: usize) -> Option<Outcome> {
        self.search(Some(max_conflicts as u64))
    }

    /// Decides satisfiability; on success returns a full model.
    pub fn solve(mut self) -> Outcome {
        self.search(None)
            .expect("unbounded solving always reaches a verdict")
    }

    fn search(&mut self, budget: Option<u64>) -> Option<Outcome> {
        if self.contradiction {
            return Some(Outcome::Unsat);
        }
        let mut until_restart = RESTART_UNIT;
        loop {
            if let Some(conflict) = self.propagate() {
                if self.levels.is_empty() {
                    return Some(Outcome::Unsat);
                }
                self.conflicts += 1;
                if budget.is_some_and(|max| self.conflicts > max) {
                    return None;
                }
                let (learnt, back) = self.analyze(conflict);
                if back + 1 < self.levels.len() {
                    self.backjumps += 1;
                }
                self.backjump(back);
                let asserting = learnt[0];
                if learnt.len() == 1 {
                    self.assign(asserting, NO_REASON);
                } else {
                    let index = self.add_clause(learnt);
                    self.assign(asserting, index);
                }
                self.order.decay();
                until_restart = until_restart.saturating_sub(1);
                continue;
            }
            if until_restart == 0 {
                self.restarts += 1;
                until_restart = luby(self.restarts) * RESTART_UNIT;
                self.backjump(0);
            }
            match self.pick_branch() {
                None => {
                    let model = self.assignment.iter().map(|a| a.unwrap_or(false)).collect();
                    return Some(Outcome::Sat(model));
                }
                Some(lit) => {
                    self.levels.push(self.trail.len());
                    self.assign(lit, NO_REASON);
                }
            }
        }
    }

    fn value(&self, lit: Lit) -> Option<bool> {
        self.assignment[lit.var().index()].map(|v| v ^ lit.is_negative())
    }

    /// Makes `lit` true at the current decision level.
    fn assign(&mut self, lit: Lit, reason: u32) {
        let var = lit.var().index();
        self.assignment[var] = Some(!lit.is_negative());
        self.level[var] = self.levels.len() as u32;
        self.reason[var] = reason;
        self.trail.push(lit);
    }

    /// Stores a clause of two or more literals, watching its first two.
    fn add_clause(&mut self, clause: Vec<Lit>) -> u32 {
        let index = self.clauses.len() as u32;
        let (first, second) = (clause[0], clause[1]);
        self.watches[first.code()].push(Watch {
            clause: index,
            blocker: second,
        });
        self.watches[second.code()].push(Watch {
            clause: index,
            blocker: first,
        });
        self.clauses.push(clause);
        index
    }

    /// Unit propagation; the conflicting clause, if any.
    fn propagate(&mut self) -> Option<u32> {
        while self.queue_head < self.trail.len() {
            let falsified = self.trail[self.queue_head].complement();
            self.queue_head += 1;
            // Clauses watching the falsified literal must find a new watch,
            // become unit, or conflict. The list is compacted in place:
            // watchers that stay are moved down to `kept`, in order, and a
            // replacement watch never lands on this list (the replacement is
            // not false, the falsified literal is).
            let mut watchers = std::mem::take(&mut self.watches[falsified.code()]);
            let mut kept = 0;
            let mut conflict = None;
            for next in 0..watchers.len() {
                let watch = watchers[next];
                if conflict.is_some() || self.value(watch.blocker) == Some(true) {
                    watchers[kept] = watch;
                    kept += 1;
                    continue;
                }
                let clause = &mut self.clauses[watch.clause as usize];
                // Normalize: the falsified watch sits at position 1.
                if clause[0] == falsified {
                    clause.swap(0, 1);
                }
                let first = clause[0];
                let watch = Watch {
                    clause: watch.clause,
                    blocker: first,
                };
                let first_value =
                    self.assignment[first.var().index()].map(|v| v ^ first.is_negative());
                if first_value == Some(true) {
                    watchers[kept] = watch;
                    kept += 1;
                    continue;
                }
                // Find a replacement watch.
                let mut replaced = false;
                for pos in 2..clause.len() {
                    let candidate = clause[pos];
                    let value = self.assignment[candidate.var().index()]
                        .map(|v| v ^ candidate.is_negative());
                    if value != Some(false) {
                        clause.swap(1, pos);
                        self.watches[candidate.code()].push(watch);
                        replaced = true;
                        break;
                    }
                }
                if replaced {
                    continue;
                }
                // No replacement: the clause is unit (first) or conflicting.
                watchers[kept] = watch;
                kept += 1;
                if first_value == Some(false) {
                    conflict = Some(watch.clause);
                } else {
                    self.assign(first, watch.clause);
                }
            }
            watchers.truncate(kept);
            self.watches[falsified.code()] = watchers;
            if conflict.is_some() {
                return conflict;
            }
        }
        None
    }

    /// 1-UIP conflict analysis: resolves the conflicting clause with the
    /// reasons of current-level literals, latest first, until one
    /// current-level literal is left. Returns the learned clause, asserting
    /// literal first and a literal of the highest remaining level second,
    /// and the level to jump back to (that second literal's level).
    fn analyze(&mut self, mut conflict: u32) -> (Vec<Lit>, usize) {
        let current = self.levels.len() as u32;
        let mut learnt = vec![Lit(0)];
        let mut pending = 0;
        let mut index = self.trail.len();
        // A reason clause's position 0 is the literal it resolves on.
        let mut skip = 0;
        let uip = loop {
            for &lit in &self.clauses[conflict as usize][skip..] {
                let var = lit.var().index();
                if self.seen[var] || self.level[var] == 0 {
                    continue;
                }
                self.seen[var] = true;
                self.order.bump(var);
                if self.level[var] == current {
                    pending += 1;
                } else {
                    learnt.push(lit);
                }
            }
            loop {
                index -= 1;
                if self.seen[self.trail[index].var().index()] {
                    break;
                }
            }
            let lit = self.trail[index];
            let var = lit.var().index();
            self.seen[var] = false;
            pending -= 1;
            if pending == 0 {
                break lit;
            }
            conflict = self.reason[var];
            skip = 1;
        };
        learnt[0] = uip.complement();
        // Move a literal whose reason is already covered by the clause
        // behind `kept`, then drop it once every mark is cleared.
        let mut kept = 1;
        for next in 1..learnt.len() {
            let reason = self.reason[learnt[next].var().index()];
            let implied = reason != NO_REASON
                && self.clauses[reason as usize][1..].iter().all(|&r| {
                    let var = r.var().index();
                    self.seen[var] || self.level[var] == 0
                });
            if !implied {
                learnt.swap(kept, next);
                kept += 1;
            }
        }
        for lit in &learnt[1..] {
            self.seen[lit.var().index()] = false;
        }
        learnt.truncate(kept);
        let mut back = 0;
        if learnt.len() > 1 {
            let mut highest = 1;
            for next in 2..learnt.len() {
                if self.level[learnt[next].var().index()]
                    > self.level[learnt[highest].var().index()]
                {
                    highest = next;
                }
            }
            learnt.swap(1, highest);
            back = self.level[learnt[1].var().index()] as usize;
        }
        (learnt, back)
    }

    /// Unassigns every level above `level`, saving each value as the
    /// variable's phase and returning it to the branching heap.
    fn backjump(&mut self, level: usize) {
        let Some(&start) = self.levels.get(level) else {
            return;
        };
        for lit in self.trail.drain(start..) {
            let var = lit.var().index();
            self.assignment[var] = None;
            self.saved_phase[var] = !lit.is_negative();
            self.order.insert(var as u32);
        }
        self.levels.truncate(level);
        self.queue_head = self.trail.len();
    }

    /// The most active unassigned variable in its saved phase, if any.
    fn pick_branch(&mut self) -> Option<Lit> {
        while let Some(var) = self.order.pop() {
            let var = Var(var);
            if self.assignment[var.index()].is_none() {
                return Some(var.lit(self.saved_phase[var.index()]));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_model(clauses: &[Vec<Lit>], model: &[bool]) {
        for clause in clauses {
            assert!(
                clause
                    .iter()
                    .any(|&l| model[l.var().index()] ^ l.is_negative()),
                "clause unsatisfied"
            );
        }
    }

    #[test]
    fn trivial_cases() {
        assert!(matches!(Solver::new(Cnf::new()).solve(), Outcome::Sat(_)));
        let mut cnf = Cnf::new();
        cnf.clause([]);
        assert_eq!(Solver::new(cnf).solve(), Outcome::Unsat);
    }

    #[test]
    fn unit_conflict_is_unsat() {
        let mut cnf = Cnf::new();
        let a = cnf.fresh();
        cnf.clause([a.positive()]);
        cnf.clause([a.negative()]);
        assert_eq!(Solver::new(cnf).solve(), Outcome::Unsat);
    }

    #[test]
    fn simple_sat_with_model_check() {
        let mut cnf = Cnf::new();
        let a = cnf.fresh();
        let b = cnf.fresh();
        let c = cnf.fresh();
        cnf.clause([a.positive(), b.positive()]);
        cnf.clause([a.negative(), c.positive()]);
        cnf.clause([b.negative(), c.negative()]);
        let clauses = cnf.clauses.clone();
        match Solver::new(cnf).solve() {
            Outcome::Sat(model) => check_model(&clauses, &model),
            Outcome::Unsat => panic!("formula is satisfiable"),
        }
    }

    /// PHP(n + 1, n): n + 1 pigeons, each in one of n holes, no hole
    /// shared — unsatisfiable, and hard for resolution as n grows.
    fn pigeonhole(holes: usize) -> Cnf {
        let mut cnf = Cnf::new();
        let p: Vec<Vec<Var>> = (0..=holes)
            .map(|_| (0..holes).map(|_| cnf.fresh()).collect())
            .collect();
        for pigeon in &p {
            cnf.clause(pigeon.iter().map(|v| v.positive()));
        }
        for (i, first) in p.iter().enumerate() {
            for second in &p[i + 1..] {
                for (a, b) in first.iter().zip(second) {
                    cnf.clause([a.negative(), b.negative()]);
                }
            }
        }
        cnf
    }

    #[test]
    fn pigeonhole_formulas_are_unsat() {
        for holes in 1..=6 {
            let mut solver = Solver::new(pigeonhole(holes));
            assert_eq!(
                solver.search(None),
                Some(Outcome::Unsat),
                "PHP({}, {holes})",
                holes + 1
            );
            if holes == 6 {
                assert!(solver.restarts > 0, "PHP(7, 6) runs long enough to restart");
            }
        }
    }

    #[test]
    fn xor_chain_parity() {
        // x0 ⊕ x1 ⊕ x2 = 1 via Tseitin-style clauses; satisfiable.
        let mut cnf = Cnf::new();
        let x: Vec<Var> = (0..3).map(|_| cnf.fresh()).collect();
        // Enumerate the 4 odd-parity-violating combinations as blocked.
        for a in [false, true] {
            for b in [false, true] {
                for c in [false, true] {
                    if a ^ b ^ c {
                        continue; // allowed
                    }
                    cnf.clause([x[0].lit(!a), x[1].lit(!b), x[2].lit(!c)]);
                }
            }
        }
        let clauses = cnf.clauses.clone();
        match Solver::new(cnf).solve() {
            Outcome::Sat(model) => {
                check_model(&clauses, &model);
                assert!(model[0] ^ model[1] ^ model[2]);
            }
            Outcome::Unsat => panic!("odd parity is achievable"),
        }
    }

    /// Whether any assignment of `variables` (at most 31) satisfies
    /// `clauses`, by enumeration: each clause becomes the masks of its
    /// positive and its negative variables.
    fn brute_force_satisfiable(variables: usize, clauses: &[Vec<Lit>]) -> bool {
        let masks: Vec<(u32, u32)> = clauses
            .iter()
            .map(|clause| {
                clause.iter().fold((0, 0), |(pos, neg), lit| {
                    let bit = 1u32 << lit.var().0;
                    if lit.is_negative() {
                        (pos, neg | bit)
                    } else {
                        (pos | bit, neg)
                    }
                })
            })
            .collect();
        (0u32..1 << variables).any(|bits| {
            masks
                .iter()
                .all(|&(pos, neg)| bits & pos != 0 || !bits & neg != 0)
        })
    }

    #[test]
    fn random_three_cnf_near_the_threshold_agrees_with_brute_force() {
        use sdd_logic::Prng;
        let mut rng = Prng::seed_from_u64(12);
        let mut verdicts = [0usize; 2];
        let (mut conflicts, mut backjumps) = (0, 0);
        for _ in 0..300 {
            // About 4.3 clauses per variable, where random 3-CNF turns from
            // mostly satisfiable to mostly unsatisfiable.
            let variables = rng.gen_range(3..=14usize);
            let clause_count = variables * 43 / 10 + rng.gen_range(0..3usize);
            let mut cnf = Cnf::new();
            let vars: Vec<Var> = (0..variables).map(|_| cnf.fresh()).collect();
            for _ in 0..clause_count {
                let mut picked: Vec<Var> = Vec::with_capacity(3);
                while picked.len() < 3 {
                    let var = vars[rng.gen_range(0..variables)];
                    if !picked.contains(&var) {
                        picked.push(var);
                    }
                }
                cnf.clause(picked.into_iter().map(|v| v.lit(rng.gen_bool(0.5))));
            }
            let clauses = cnf.clauses.clone();
            let satisfiable = brute_force_satisfiable(variables, &clauses);
            let mut solver = Solver::new(cnf.clone());
            let outcome = solver.search(None).expect("unbounded");
            conflicts += solver.conflicts;
            backjumps += solver.backjumps;
            match &outcome {
                Outcome::Sat(model) => {
                    assert!(satisfiable, "solver found model for unsat formula");
                    check_model(&clauses, model);
                }
                Outcome::Unsat => assert!(!satisfiable, "solver missed a model"),
            }
            verdicts[usize::from(satisfiable)] += 1;
            assert_eq!(
                Solver::new(cnf.clone()).solve(),
                outcome,
                "same formula, same model"
            );
            for budget in [0, 1, 4, 16] {
                if let Some(bounded) = Solver::new(cnf.clone()).solve_with_budget(budget) {
                    assert_eq!(bounded, outcome, "budget {budget} settled differently");
                }
            }
        }
        assert!(
            verdicts.iter().all(|&n| n > 0),
            "both verdicts occur: {verdicts:?}"
        );
        assert!(
            conflicts > 0 && backjumps > 0,
            "learning ({conflicts} conflicts) and backjumping ({backjumps}) fire"
        );
    }

    #[test]
    fn literal_basics() {
        let v = Var(3);
        assert_eq!(v.positive().var(), v);
        assert!(!v.positive().is_negative());
        assert!(v.negative().is_negative());
        assert_eq!(v.positive().complement(), v.negative());
        assert_eq!(v.lit(true), v.positive());
        assert_eq!(v.positive().to_string(), "x3");
        assert_eq!(v.negative().to_string(), "¬x3");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_literal_panics() {
        let mut cnf = Cnf::new();
        cnf.clause([Var(0).positive()]);
    }
}

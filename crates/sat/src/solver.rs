//! DPLL with two-watched-literal unit propagation.

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

/// A clause watching a literal, with another of its literals: while that
/// blocker is true the clause is satisfied and need not be visited.
#[derive(Debug, Clone, Copy)]
struct Watch {
    clause: u32,
    blocker: Lit,
}

/// A DPLL solver over one formula.
#[derive(Debug)]
pub struct Solver {
    clauses: Vec<Vec<Lit>>,
    /// For each literal code, the clauses watching it.
    watches: Vec<Vec<Watch>>,
    /// Assignment: `None` unassigned.
    assignment: Vec<Option<bool>>,
    /// Assignment trail; `decisions` marks decision levels (trail indices).
    trail: Vec<Lit>,
    decisions: Vec<usize>,
    queue_head: usize,
    /// Variables in descending static occurrence order — a cheap branching
    /// heuristic that keeps circuit-miter instances tractable.
    branch_order: Vec<Var>,
    /// Each variable's index in `branch_order`.
    branch_position: Vec<u32>,
    /// Every variable in `branch_order` before this index is assigned, so
    /// the next branch is found by scanning from here; unassigning a
    /// variable rewinds it to that variable's position.
    branch_cursor: usize,
}

impl Solver {
    /// Prepares a solver for `cnf`.
    pub fn new(cnf: Cnf) -> Self {
        let variables = cnf.variable_count();
        let mut occurrences = vec![0u32; variables];
        for clause in &cnf.clauses {
            for &lit in clause {
                occurrences[lit.var().index()] += 1;
            }
        }
        let mut branch_order: Vec<Var> = (0..variables as u32).map(Var).collect();
        branch_order.sort_by_key(|v| std::cmp::Reverse(occurrences[v.index()]));
        let mut branch_position = vec![0u32; variables];
        for (position, var) in branch_order.iter().enumerate() {
            branch_position[var.index()] = position as u32;
        }
        let mut solver = Self {
            clauses: cnf.clauses,
            watches: vec![Vec::new(); variables * 2],
            assignment: vec![None; variables],
            trail: Vec::new(),
            decisions: Vec::new(),
            queue_head: 0,
            branch_order,
            branch_position,
            branch_cursor: 0,
        };
        for (index, clause) in solver.clauses.iter().enumerate() {
            let clause_index = index as u32;
            match clause[..] {
                [] => {}
                [only] => {
                    // Watched during solve via the unit queue.
                    solver.watches[only.code()].push(Watch {
                        clause: clause_index,
                        blocker: only,
                    });
                }
                [first, second, ..] => {
                    solver.watches[first.code()].push(Watch {
                        clause: clause_index,
                        blocker: second,
                    });
                    solver.watches[second.code()].push(Watch {
                        clause: clause_index,
                        blocker: first,
                    });
                }
            }
        }
        solver
    }

    /// Like [`solve`](Self::solve), but gives up after `max_backtracks`
    /// chronological backtracks, returning `None` — for callers that prefer
    /// "unknown" over unbounded runtime on hard instances.
    pub fn solve_with_budget(self, max_backtracks: usize) -> Option<Outcome> {
        self.solve_inner(Some(max_backtracks))
    }

    /// Decides satisfiability; on success returns a full model.
    pub fn solve(self) -> Outcome {
        self.solve_inner(None)
            .expect("unbounded solving always reaches a verdict")
    }

    fn solve_inner(mut self, budget: Option<usize>) -> Option<Outcome> {
        // Empty clauses are immediately unsatisfiable; unit clauses seed the
        // propagation queue.
        for i in 0..self.clauses.len() {
            match self.clauses[i].len() {
                0 => return Some(Outcome::Unsat),
                1 => {
                    let lit = self.clauses[i][0];
                    if !self.enqueue(lit) {
                        return Some(Outcome::Unsat);
                    }
                }
                _ => {}
            }
        }
        if !self.propagate() {
            return Some(Outcome::Unsat);
        }
        let mut backtracks = 0usize;
        loop {
            match self.pick_branch() {
                None => {
                    let model = self.assignment.iter().map(|a| a.unwrap_or(false)).collect();
                    return Some(Outcome::Sat(model));
                }
                Some(var) => {
                    self.decisions.push(self.trail.len());
                    let ok = self.enqueue(var.positive()) && self.propagate();
                    if !ok {
                        backtracks += 1;
                        if budget.is_some_and(|max| backtracks > max) {
                            return None;
                        }
                        if !self.backtrack() {
                            return Some(Outcome::Unsat);
                        }
                    }
                }
            }
        }
    }

    fn value(&self, lit: Lit) -> Option<bool> {
        self.assignment[lit.var().index()].map(|v| v ^ lit.is_negative())
    }

    /// Assigns `lit` true; `false` on conflict with the current assignment.
    fn enqueue(&mut self, lit: Lit) -> bool {
        match self.value(lit) {
            Some(true) => true,
            Some(false) => false,
            None => {
                self.assignment[lit.var().index()] = Some(!lit.is_negative());
                self.trail.push(lit);
                true
            }
        }
    }

    /// Unit propagation; `false` on conflict.
    fn propagate(&mut self) -> bool {
        while self.queue_head < self.trail.len() {
            let lit = self.trail[self.queue_head];
            self.queue_head += 1;
            let falsified = lit.complement();
            // Clauses watching the falsified literal must find a new watch,
            // become unit, or conflict. The list is compacted in place:
            // watchers that stay are moved down to `kept`, in order, and a
            // replacement watch never lands on this list (the replacement is
            // not false, the falsified literal is).
            let mut watchers = std::mem::take(&mut self.watches[falsified.code()]);
            let mut kept = 0;
            let mut conflict = false;
            for next in 0..watchers.len() {
                let watch = watchers[next];
                if conflict || self.value(watch.blocker) == Some(true) {
                    watchers[kept] = watch;
                    kept += 1;
                    continue;
                }
                let clause = &mut self.clauses[watch.clause as usize];
                if clause.len() == 1 {
                    // Unit clause watching its only literal.
                    watchers[kept] = watch;
                    kept += 1;
                    if self.assignment[falsified.var().index()].map(|v| v ^ clause[0].is_negative())
                        == Some(false)
                        && clause[0].var() == falsified.var()
                    {
                        conflict = true;
                    }
                    continue;
                }
                // Normalize: watched literals sit at positions 0 and 1.
                if clause[0] == falsified {
                    clause.swap(0, 1);
                }
                debug_assert_eq!(clause[1], falsified);
                // If the other watch is already true, the clause is happy.
                let first = clause[0];
                let watch = Watch {
                    clause: watch.clause,
                    blocker: first,
                };
                if self.assignment[first.var().index()].map(|v| v ^ first.is_negative())
                    == Some(true)
                {
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
                // No replacement: clause is unit (first) or conflicting.
                watchers[kept] = watch;
                kept += 1;
                if !self.enqueue(first) {
                    conflict = true;
                }
            }
            watchers.truncate(kept);
            self.watches[falsified.code()] = watchers;
            if conflict {
                return false;
            }
        }
        true
    }

    /// Most-occurring unassigned variable, if any.
    fn pick_branch(&mut self) -> Option<Var> {
        while let Some(&var) = self.branch_order.get(self.branch_cursor) {
            if self.assignment[var.index()].is_none() {
                return Some(var);
            }
            self.branch_cursor += 1;
        }
        None
    }

    /// Unassigns every trail literal from index `level` on.
    fn undo_to(&mut self, level: usize) {
        for lit in self.trail.drain(level..) {
            let var = lit.var().index();
            self.assignment[var] = None;
            self.branch_cursor = self.branch_cursor.min(self.branch_position[var] as usize);
        }
        self.queue_head = self.trail.len();
    }

    /// Undoes to the last decision taken positively and retries it
    /// negatively; `false` when the tree is exhausted.
    fn backtrack(&mut self) -> bool {
        while let Some(level) = self.decisions.pop() {
            let decided = self.trail[level];
            self.undo_to(level);
            if !decided.is_negative() {
                // Try the complementary phase as a pseudo-decision that we
                // will not flip again (mark by negative phase).
                self.decisions.push(self.trail.len());
                if self.enqueue(decided.complement()) && self.propagate() {
                    return true;
                }
                // Immediate conflict: keep unwinding.
                let level = self.decisions.pop().expect("just pushed");
                self.undo_to(level);
            }
        }
        false
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

    #[test]
    fn pigeonhole_three_into_two_is_unsat() {
        // PHP(3,2): 3 pigeons, 2 holes.
        let mut cnf = Cnf::new();
        let p: Vec<Vec<Var>> = (0..3)
            .map(|_| (0..2).map(|_| cnf.fresh()).collect())
            .collect();
        for pigeon in &p {
            cnf.clause(pigeon.iter().map(|v| v.positive()));
        }
        for hole in [0, 1] {
            for i in 0..3 {
                for j in i + 1..3 {
                    cnf.clause([p[i][hole].negative(), p[j][hole].negative()]);
                }
            }
        }
        assert_eq!(Solver::new(cnf).solve(), Outcome::Unsat);
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

    #[test]
    fn randomized_small_formulas_agree_with_brute_force() {
        use sdd_logic::Prng;
        let mut rng = Prng::seed_from_u64(12);
        for _ in 0..300 {
            let variables = rng.gen_range(1..=6usize);
            let clause_count = rng.gen_range(0..=12usize);
            let mut cnf = Cnf::new();
            let vars: Vec<Var> = (0..variables).map(|_| cnf.fresh()).collect();
            let mut clauses = Vec::new();
            for _ in 0..clause_count {
                let len = rng.gen_range(1..=3usize);
                let clause: Vec<Lit> = (0..len)
                    .map(|_| vars[rng.gen_range(0..variables)].lit(rng.gen_bool(0.5)))
                    .collect();
                clauses.push(clause.clone());
                cnf.clause(clause);
            }
            // Brute force ground truth.
            let mut satisfiable = false;
            for bits in 0u32..1 << variables {
                let model: Vec<bool> = (0..variables).map(|i| bits >> i & 1 == 1).collect();
                if clauses
                    .iter()
                    .all(|c| c.iter().any(|&l| model[l.var().index()] ^ l.is_negative()))
                {
                    satisfiable = true;
                    break;
                }
            }
            match Solver::new(cnf).solve() {
                Outcome::Sat(model) => {
                    assert!(satisfiable, "solver found model for unsat formula");
                    check_model(&clauses, &model);
                }
                Outcome::Unsat => assert!(!satisfiable, "solver missed a model"),
            }
        }
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

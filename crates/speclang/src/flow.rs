//! Statement-level control-flow programs for dataflow analysis.
//!
//! [`FlowLowering::lower`] lowers one behavior of a parsed [`Spec`] into
//! a small control-flow graph, against a lowering context built once per
//! specification (its globals and folded constants);
//! [`FlowProgram::from_spec`] maps that over every behavior, and edit
//! sessions map it over only the behaviors an edit touched.
//!
//! Structured statements desugar into branch/join nodes, `for` loops
//! into an init/header/increment diamond with an explicit back edge,
//! `fork` into a parallel diamond, and a `process` body into an infinite
//! loop (body end → body start), so locals persist across iterations
//! exactly as they do at run time.
//!
//! The lowering is span-faithful (every node carries the span of the
//! statement it came from) but the per-behavior [`FlowBehavior::hash`]
//! is span-agnostic: two behaviors with identical structure hash equal
//! even when whitespace or surrounding declarations moved. The analysis
//! memo keys per-behavior results on that hash.
//!
//! `@allow(...)` annotations are collected into [`Suppressions`],
//! carried alongside the graphs so analysis passes can suppress
//! findings per declaration.

use crate::ast::{
    BehaviorDecl, BehaviorKind, BinOp, Direction, Expr, LValue, Spec, Stmt, Type, UnOp,
};
use crate::span::Span;
use std::collections::{BTreeMap, BTreeSet};

/// What kind of storage a [`SlotInfo`] names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotKind {
    /// A formal parameter (initialized by the caller).
    Param,
    /// A behavior-local variable.
    Local,
    /// A `for` loop variable (initialized by the loop header).
    LoopVar,
    /// A system-level variable.
    Global,
    /// An external port with the given direction.
    Port(Direction),
}

/// One named storage location visible to a behavior.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlotInfo {
    /// The source name.
    pub name: String,
    /// Parameter, local, loop variable, global, or port.
    pub kind: SlotKind,
    /// Declared integer width in bits (element width for arrays); `None`
    /// for booleans and loop variables.
    pub width: Option<u32>,
    /// Whether the declared type is `bool`.
    pub is_bool: bool,
    /// Whether the declared type is an array.
    pub is_array: bool,
}

/// A side-effect-free expression over slots and constants.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlowExpr {
    /// An integer (or `true`/`false` as 1/0) constant; named constants
    /// are folded here during lowering.
    Const(i128),
    /// A read of a scalar slot.
    Slot(u32),
    /// A read of one element of an array slot.
    Index {
        /// The array slot.
        slot: u32,
        /// The element selector.
        index: Box<FlowExpr>,
    },
    /// A call in expression position (user function or builtin).
    Call {
        /// Callee name.
        callee: String,
        /// Actual arguments.
        args: Vec<FlowExpr>,
    },
    /// A binary operation.
    Binary {
        /// The operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<FlowExpr>,
        /// Right operand.
        rhs: Box<FlowExpr>,
    },
    /// A unary operation.
    Unary {
        /// The operator.
        op: UnOp,
        /// The operand.
        operand: Box<FlowExpr>,
    },
    /// A name lowering could not resolve (only on unresolved specs).
    Unknown,
}

impl FlowExpr {
    /// Visits every slot this expression reads.
    pub fn for_each_use(&self, f: &mut dyn FnMut(u32)) {
        match self {
            FlowExpr::Const(_) | FlowExpr::Unknown => {}
            FlowExpr::Slot(s) => f(*s),
            FlowExpr::Index { slot, index } => {
                f(*slot);
                index.for_each_use(f);
            }
            FlowExpr::Call { args, .. } => {
                for a in args {
                    a.for_each_use(f);
                }
            }
            FlowExpr::Binary { lhs, rhs, .. } => {
                lhs.for_each_use(f);
                rhs.for_each_use(f);
            }
            FlowExpr::Unary { operand, .. } => operand.for_each_use(f),
        }
    }

    /// Whether the expression contains a call to a user-defined behavior
    /// (anything that is not a pure builtin), i.e. may have side effects.
    pub fn calls_user_code(&self) -> bool {
        match self {
            FlowExpr::Const(_) | FlowExpr::Slot(_) | FlowExpr::Unknown => false,
            FlowExpr::Index { index, .. } => index.calls_user_code(),
            FlowExpr::Call { callee, args } => {
                !is_builtin(callee) || args.iter().any(FlowExpr::calls_user_code)
            }
            FlowExpr::Binary { lhs, rhs, .. } => lhs.calls_user_code() || rhs.calls_user_code(),
            FlowExpr::Unary { operand, .. } => operand.calls_user_code(),
        }
    }
}

/// Whether `name` is one of the language builtins (`min`/`max`/`abs`).
pub fn is_builtin(name: &str) -> bool {
    crate::BUILTINS.iter().any(|(n, _)| *n == name)
}

/// The operation a [`FlowNode`] performs.
#[derive(Debug, Clone, PartialEq)]
pub enum FlowOp {
    /// The unique entry node (always node 0).
    Entry,
    /// The unique exit node.
    Exit,
    /// A no-op merge/sequence point.
    Join,
    /// A write of `value` to `dst` (one element when `index` is set).
    Assign {
        /// Target slot.
        dst: u32,
        /// Element selector for array-element writes.
        index: Option<FlowExpr>,
        /// The stored value.
        value: FlowExpr,
    },
    /// A two-way branch: `succs[0]` is taken when `cond` holds, `succs[1]`
    /// otherwise.
    Branch {
        /// The branch condition.
        cond: FlowExpr,
        /// Whether this is a loop header (target of a back edge).
        loop_header: bool,
    },
    /// A statement-position call.
    Call {
        /// Callee name.
        callee: String,
        /// Actual arguments.
        args: Vec<FlowExpr>,
    },
    /// A message send.
    Send {
        /// Receiving behavior name.
        target: String,
        /// The payload.
        value: FlowExpr,
    },
    /// A message receive into `dst`.
    Receive {
        /// Target slot.
        dst: u32,
        /// Element selector for array-element targets.
        index: Option<FlowExpr>,
    },
    /// A return (edges to the exit node).
    Return {
        /// The returned value, for functions.
        value: Option<FlowExpr>,
    },
    /// A `wait` delay.
    Wait,
}

/// One node of a behavior's control-flow graph.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowNode {
    /// What the node does.
    pub op: FlowOp,
    /// The span of the source statement this node came from.
    pub span: Span,
    /// Whether the node was synthesized by desugaring (loop init,
    /// header test, increment, joins) rather than written by the user.
    pub synthetic: bool,
    /// Successor node indices.
    pub succs: Vec<u32>,
}

impl FlowNode {
    /// Visits every slot this node reads (including element selectors of
    /// indexed writes, which are reads).
    pub fn for_each_use(&self, f: &mut dyn FnMut(u32)) {
        match &self.op {
            FlowOp::Entry | FlowOp::Exit | FlowOp::Join | FlowOp::Wait => {}
            FlowOp::Assign { index, value, .. } => {
                if let Some(ix) = index {
                    ix.for_each_use(f);
                }
                value.for_each_use(f);
            }
            FlowOp::Branch { cond, .. } => cond.for_each_use(f),
            FlowOp::Call { args, .. } => {
                for a in args {
                    a.for_each_use(f);
                }
            }
            FlowOp::Send { value, .. } => value.for_each_use(f),
            FlowOp::Receive { index, .. } => {
                if let Some(ix) = index {
                    ix.for_each_use(f);
                }
            }
            FlowOp::Return { value } => {
                if let Some(v) = value {
                    v.for_each_use(f);
                }
            }
        }
    }

    /// The slot this node writes, if any, and whether the write is to a
    /// single array element (`true`) rather than the whole slot.
    pub fn def(&self) -> Option<(u32, bool)> {
        match &self.op {
            FlowOp::Assign { dst, index, .. } | FlowOp::Receive { dst, index } => {
                Some((*dst, index.is_some()))
            }
            _ => None,
        }
    }
}

/// The control-flow graph of one behavior.
#[derive(Debug, Clone)]
pub struct FlowBehavior {
    /// The behavior's name.
    pub name: String,
    /// Whether it is a concurrent `process`.
    pub is_process: bool,
    /// Declared return width for `func`s returning `int<N>`.
    pub ret_width: Option<u32>,
    /// All storage locations the behavior touches.
    pub slots: Vec<SlotInfo>,
    /// The graph; node 0 is [`FlowOp::Entry`].
    pub nodes: Vec<FlowNode>,
    /// The index of the [`FlowOp::Exit`] node.
    pub exit: u32,
    /// Targets of back edges — the points where iterative solvers widen.
    pub widen_points: Vec<u32>,
    /// Span-agnostic structural hash of the whole behavior; equal hashes
    /// mean per-behavior analysis results can be reused verbatim.
    pub hash: u64,
}

impl FlowBehavior {
    /// Predecessor lists, computed from [`FlowNode::succs`].
    pub fn preds(&self) -> Vec<Vec<u32>> {
        let mut preds = vec![Vec::new(); self.nodes.len()];
        for (i, n) in self.nodes.iter().enumerate() {
            for &s in &n.succs {
                preds[s as usize].push(i as u32);
            }
        }
        preds
    }

    /// Names of user behaviors this one calls (statement or expression
    /// position), in first-occurrence order.
    pub fn callees(&self) -> Vec<&str> {
        let mut out: Vec<&str> = Vec::new();
        for n in &self.nodes {
            collect_callees(&n.op, &mut out);
        }
        out
    }
}

fn collect_callees<'a>(op: &'a FlowOp, out: &mut Vec<&'a str>) {
    let mut visit_expr = |e: &'a FlowExpr| collect_expr_callees(e, out);
    match op {
        FlowOp::Assign { index, value, .. } => {
            if let Some(ix) = index {
                visit_expr(ix);
            }
            visit_expr(value);
        }
        FlowOp::Branch { cond, .. } => visit_expr(cond),
        FlowOp::Call { callee, args } => {
            if !is_builtin(callee) && !out.contains(&callee.as_str()) {
                out.push(callee);
            }
            for a in args {
                collect_expr_callees(a, out);
            }
        }
        FlowOp::Send { value, .. } => visit_expr(value),
        FlowOp::Return { value: Some(v) } => visit_expr(v),
        _ => {}
    }
}

fn collect_expr_callees<'a>(e: &'a FlowExpr, out: &mut Vec<&'a str>) {
    match e {
        FlowExpr::Call { callee, args } => {
            if !is_builtin(callee) && !out.contains(&callee.as_str()) {
                out.push(callee);
            }
            for a in args {
                collect_expr_callees(a, out);
            }
        }
        FlowExpr::Index { index, .. } => collect_expr_callees(index, out),
        FlowExpr::Binary { lhs, rhs, .. } => {
            collect_expr_callees(lhs, out);
            collect_expr_callees(rhs, out);
        }
        FlowExpr::Unary { operand, .. } => collect_expr_callees(operand, out),
        _ => {}
    }
}

/// `@allow(...)` suppressions collected from a [`Spec`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Suppressions {
    /// Lint codes suppressed per behavior name (whole-subtree).
    pub behaviors: BTreeMap<String, BTreeSet<String>>,
    /// Lint codes suppressed per system-variable name.
    pub vars: BTreeMap<String, BTreeSet<String>>,
}

impl Suppressions {
    /// Collects every `@allow` annotation in the specification.
    pub fn from_spec(spec: &Spec) -> Self {
        let mut s = Suppressions::default();
        for v in &spec.vars {
            if !v.allows.is_empty() {
                s.vars
                    .entry(v.name.clone())
                    .or_default()
                    .extend(v.allows.iter().cloned());
            }
        }
        for b in &spec.behaviors {
            if !b.allows.is_empty() {
                s.behaviors
                    .entry(b.name.clone())
                    .or_default()
                    .extend(b.allows.iter().cloned());
            }
        }
        s
    }

    /// Whether no annotation is present at all.
    pub fn is_empty(&self) -> bool {
        self.behaviors.is_empty() && self.vars.is_empty()
    }

    /// Whether `code` is suppressed for the named behavior.
    pub fn behavior_allows(&self, behavior: &str, code: &str) -> bool {
        self.behaviors
            .get(behavior)
            .is_some_and(|codes| codes.contains(code))
    }

    /// Whether `code` is suppressed for the named system variable.
    pub fn var_allows(&self, var: &str, code: &str) -> bool {
        self.vars.get(var).is_some_and(|codes| codes.contains(code))
    }

    /// A stable fingerprint of the whole suppression set; analysis memos
    /// treat a fingerprint change like a configuration change.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        for (name, codes) in &self.behaviors {
            h.str("b");
            h.str(name);
            for c in codes {
                h.str(c);
            }
        }
        for (name, codes) in &self.vars {
            h.str("v");
            h.str(name);
            for c in codes {
                h.str(c);
            }
        }
        h.finish()
    }
}

/// A whole specification lowered for dataflow analysis: one CFG per
/// behavior plus the collected suppressions.
#[derive(Debug, Clone)]
pub struct FlowProgram {
    /// Per-behavior graphs, in declaration order.
    pub behaviors: Vec<FlowBehavior>,
    /// `@allow` suppressions from the same specification.
    pub suppressions: Suppressions,
    index: BTreeMap<String, usize>,
}

impl FlowProgram {
    /// Lowers a parsed specification. Never fails: unresolved names
    /// lower to [`FlowExpr::Unknown`], which every analysis treats as
    /// "no information".
    pub fn from_spec(spec: &Spec) -> Self {
        let cx = FlowLowering::new(spec);
        let behaviors: Vec<FlowBehavior> = spec.behaviors.iter().map(|b| cx.lower(b)).collect();
        let index = behaviors
            .iter()
            .enumerate()
            .map(|(i, b)| (b.name.clone(), i))
            .collect();
        FlowProgram {
            behaviors,
            suppressions: Suppressions::from_spec(spec),
            index,
        }
    }

    /// Looks up a behavior's graph by name.
    pub fn get(&self, name: &str) -> Option<&FlowBehavior> {
        self.position(name).map(|i| &self.behaviors[i])
    }

    /// The declaration index of the behavior a call to `name` reaches
    /// (the last one declared under that name).
    pub fn position(&self, name: &str) -> Option<usize> {
        self.index.get(name).copied()
    }
}

/// The context one behavior is lowered in: the specification's ports
/// and system variables, and its named constants folded to integers.
/// Building it costs O(globals); lowering a behavior against it costs
/// O(that behavior), so a caller that knows which behaviors changed
/// lowers only those.
#[derive(Debug)]
pub struct FlowLowering<'s> {
    globals: BTreeMap<&'s str, (SlotKind, &'s Type)>,
    consts: BTreeMap<&'s str, i128>,
}

impl<'s> FlowLowering<'s> {
    /// Collects the globals and folds the constants of `spec`.
    pub fn new(spec: &'s Spec) -> Self {
        let mut globals = BTreeMap::new();
        for p in &spec.ports {
            globals.insert(p.name.as_str(), (SlotKind::Port(p.direction), &p.ty));
        }
        for v in &spec.vars {
            globals.insert(v.name.as_str(), (SlotKind::Global, &v.ty));
        }
        FlowLowering {
            globals,
            consts: fold_consts(spec),
        }
    }

    /// Lowers one behavior declaration of the specification this context
    /// was built from.
    pub fn lower(&self, decl: &BehaviorDecl) -> FlowBehavior {
        Builder::lower(decl, self)
    }
}

/// Evaluates every `const` declaration to an integer, in order, so later
/// constants can reference earlier ones.
fn fold_consts(spec: &Spec) -> BTreeMap<&str, i128> {
    let mut consts = BTreeMap::new();
    for c in &spec.consts {
        if let Some(v) = eval_const(&c.value, &consts) {
            consts.insert(c.name.as_str(), v);
        }
    }
    consts
}

fn eval_const(e: &Expr, consts: &BTreeMap<&str, i128>) -> Option<i128> {
    match e {
        Expr::Int { value, .. } => Some(i128::from(*value)),
        Expr::Bool { value, .. } => Some(i128::from(*value)),
        Expr::Name { name, .. } => consts.get(name.as_str()).copied(),
        Expr::Binary { op, lhs, rhs, .. } => {
            let l = eval_const(lhs, consts)?;
            let r = eval_const(rhs, consts)?;
            Some(match op {
                BinOp::Add => l.checked_add(r)?,
                BinOp::Sub => l.checked_sub(r)?,
                BinOp::Mul => l.checked_mul(r)?,
                BinOp::Div => l.checked_div(r)?,
                BinOp::Rem => l.checked_rem(r)?,
                BinOp::Eq => i128::from(l == r),
                BinOp::Ne => i128::from(l != r),
                BinOp::Lt => i128::from(l < r),
                BinOp::Le => i128::from(l <= r),
                BinOp::Gt => i128::from(l > r),
                BinOp::Ge => i128::from(l >= r),
                BinOp::And => i128::from(l != 0 && r != 0),
                BinOp::Or => i128::from(l != 0 || r != 0),
            })
        }
        Expr::Unary { op, operand, .. } => {
            let v = eval_const(operand, consts)?;
            Some(match op {
                UnOp::Neg => v.checked_neg()?,
                UnOp::Not => i128::from(v == 0),
            })
        }
        _ => None,
    }
}

fn slot_info(name: &str, kind: SlotKind, ty: &Type) -> SlotInfo {
    SlotInfo {
        name: name.to_owned(),
        kind,
        width: match *ty {
            Type::Int(bits) => Some(bits),
            Type::Bool => None,
            Type::Array { elem_bits, .. } => Some(elem_bits),
        },
        is_bool: matches!(ty, Type::Bool),
        is_array: ty.is_array(),
    }
}

struct Builder<'a> {
    cx: &'a FlowLowering<'a>,
    slots: Vec<SlotInfo>,
    by_name: BTreeMap<String, u32>,
    nodes: Vec<FlowNode>,
    widen_points: Vec<u32>,
    exit: u32,
}

impl<'a> Builder<'a> {
    fn lower(decl: &BehaviorDecl, cx: &'a FlowLowering<'a>) -> FlowBehavior {
        let mut b = Builder {
            cx,
            slots: Vec::new(),
            by_name: BTreeMap::new(),
            nodes: Vec::new(),
            widen_points: Vec::new(),
            exit: 0,
        };
        for p in &decl.params {
            b.add_slot(slot_info(&p.name, SlotKind::Param, &p.ty));
        }
        for l in &decl.locals {
            b.add_slot(slot_info(&l.name, SlotKind::Local, &l.ty));
        }

        let entry = b.add(FlowOp::Entry, decl.span, true);
        let is_process = decl.kind == BehaviorKind::Process;
        let mut cur = entry;
        let top = if is_process {
            let top = b.add(FlowOp::Join, decl.span, true);
            b.edge(cur, top);
            cur = top;
            Some(top)
        } else {
            None
        };
        for stmt in &decl.body {
            cur = b.stmt(cur, stmt);
        }
        if let Some(top) = top {
            // The process repeats forever: body end feeds body start.
            b.edge(cur, top);
            b.widen_points.push(top);
        }
        let exit = b.add(FlowOp::Exit, decl.span, true);
        b.edge(cur, exit);
        b.exit = exit;
        // `return` nodes were built before the exit existed; wire them up.
        for i in 0..b.nodes.len() {
            if matches!(b.nodes[i].op, FlowOp::Return { .. }) && b.nodes[i].succs.is_empty() {
                b.nodes[i].succs.push(exit);
            }
        }
        b.widen_points.sort_unstable();
        b.widen_points.dedup();

        let ret_width = match &decl.kind {
            BehaviorKind::Function { ret: Type::Int(bits) } => Some(*bits),
            _ => None,
        };
        let mut fb = FlowBehavior {
            name: decl.name.clone(),
            is_process,
            ret_width,
            slots: b.slots,
            nodes: b.nodes,
            exit,
            widen_points: b.widen_points,
            hash: 0,
        };
        fb.hash = structural_hash(&fb);
        fb
    }

    fn add_slot(&mut self, info: SlotInfo) -> u32 {
        if let Some(&i) = self.by_name.get(&info.name) {
            return i;
        }
        let i = self.slots.len() as u32;
        self.by_name.insert(info.name.clone(), i);
        self.slots.push(info);
        i
    }

    /// Resolves a name to a slot, pulling in globals/ports lazily; named
    /// constants fold to `None` (the caller produces a constant).
    fn slot_of(&mut self, name: &str) -> Option<u32> {
        if let Some(&i) = self.by_name.get(name) {
            return Some(i);
        }
        if self.cx.consts.contains_key(name) {
            return None;
        }
        let &(kind, ty) = self.cx.globals.get(name)?;
        Some(self.add_slot(slot_info(name, kind, ty)))
    }

    fn add(&mut self, op: FlowOp, span: Span, synthetic: bool) -> u32 {
        let i = self.nodes.len() as u32;
        self.nodes.push(FlowNode {
            op,
            span,
            synthetic,
            succs: Vec::new(),
        });
        i
    }

    fn edge(&mut self, from: u32, to: u32) {
        self.nodes[from as usize].succs.push(to);
    }

    fn stmt(&mut self, cur: u32, stmt: &Stmt) -> u32 {
        match stmt {
            Stmt::Assign { lhs, value, span } => {
                let value = self.expr(value);
                let n = self.lvalue_write(lhs, value, *span, false);
                self.edge(cur, n);
                n
            }
            Stmt::Call { callee, args, span } => {
                let args = args.iter().map(|a| self.expr(a)).collect();
                let n = self.add(
                    FlowOp::Call {
                        callee: callee.clone(),
                        args,
                    },
                    *span,
                    false,
                );
                self.edge(cur, n);
                n
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
                span,
                ..
            } => {
                let cond = self.expr(cond);
                let branch = self.add(
                    FlowOp::Branch {
                        cond,
                        loop_header: false,
                    },
                    *span,
                    false,
                );
                self.edge(cur, branch);
                let then_entry = self.add(FlowOp::Join, *span, true);
                let mut then_end = then_entry;
                for s in then_body {
                    then_end = self.stmt(then_end, s);
                }
                let else_entry = self.add(FlowOp::Join, *span, true);
                let mut else_end = else_entry;
                for s in else_body {
                    else_end = self.stmt(else_end, s);
                }
                self.edge(branch, then_entry);
                self.edge(branch, else_entry);
                let join = self.add(FlowOp::Join, *span, true);
                self.edge(then_end, join);
                self.edge(else_end, join);
                join
            }
            Stmt::For {
                var,
                lo,
                hi,
                body,
                span,
            } => {
                let lo = self.expr(lo);
                let hi = self.expr(hi);
                let iv = self.add_slot(SlotInfo {
                    name: var.clone(),
                    kind: SlotKind::LoopVar,
                    width: None,
                    is_bool: false,
                    is_array: false,
                });
                let init = self.add(
                    FlowOp::Assign {
                        dst: iv,
                        index: None,
                        value: lo,
                    },
                    *span,
                    true,
                );
                self.edge(cur, init);
                // Bounds are inclusive: `for i in lo .. hi` runs i = lo..=hi.
                let header = self.add(
                    FlowOp::Branch {
                        cond: FlowExpr::Binary {
                            op: BinOp::Le,
                            lhs: Box::new(FlowExpr::Slot(iv)),
                            rhs: Box::new(hi),
                        },
                        loop_header: true,
                    },
                    *span,
                    true,
                );
                self.edge(init, header);
                let body_entry = self.add(FlowOp::Join, *span, true);
                self.edge(header, body_entry);
                let mut end = body_entry;
                for s in body {
                    end = self.stmt(end, s);
                }
                let inc = self.add(
                    FlowOp::Assign {
                        dst: iv,
                        index: None,
                        value: FlowExpr::Binary {
                            op: BinOp::Add,
                            lhs: Box::new(FlowExpr::Slot(iv)),
                            rhs: Box::new(FlowExpr::Const(1)),
                        },
                    },
                    *span,
                    true,
                );
                self.edge(end, inc);
                self.edge(inc, header);
                self.widen_points.push(header);
                let after = self.add(FlowOp::Join, *span, true);
                self.edge(header, after);
                after
            }
            Stmt::While {
                cond, body, span, ..
            } => {
                let cond = self.expr(cond);
                let header = self.add(
                    FlowOp::Branch {
                        cond,
                        loop_header: true,
                    },
                    *span,
                    false,
                );
                self.edge(cur, header);
                let body_entry = self.add(FlowOp::Join, *span, true);
                self.edge(header, body_entry);
                let mut end = body_entry;
                for s in body {
                    end = self.stmt(end, s);
                }
                self.edge(end, header);
                self.widen_points.push(header);
                let after = self.add(FlowOp::Join, *span, true);
                self.edge(header, after);
                after
            }
            Stmt::Fork { body, span } => {
                let fork = self.add(FlowOp::Join, *span, true);
                self.edge(cur, fork);
                let join = self.add(FlowOp::Join, *span, true);
                if body.is_empty() {
                    self.edge(fork, join);
                } else {
                    for s in body {
                        let arm = self.stmt(fork, s);
                        self.edge(arm, join);
                    }
                }
                join
            }
            Stmt::Send {
                target,
                value,
                span,
            } => {
                let value = self.expr(value);
                let n = self.add(
                    FlowOp::Send {
                        target: target.clone(),
                        value,
                    },
                    *span,
                    false,
                );
                self.edge(cur, n);
                n
            }
            Stmt::Receive { lhs, span } => {
                let n = match self.slot_of(lhs.name()) {
                    Some(dst) => {
                        let index = match lhs {
                            LValue::Index { index, .. } => Some(self.expr(index)),
                            LValue::Name { .. } => None,
                        };
                        self.add(FlowOp::Receive { dst, index }, *span, false)
                    }
                    None => self.add(FlowOp::Join, *span, false),
                };
                self.edge(cur, n);
                n
            }
            Stmt::Return { value, span } => {
                let value = value.as_ref().map(|v| self.expr(v));
                let ret = self.add(FlowOp::Return { value }, *span, false);
                self.edge(cur, ret);
                // The return's edge to exit is patched in `lower`; code
                // after it starts a fresh (unreachable) chain.
                self.add(FlowOp::Join, *span, true)
            }
            Stmt::Wait { span, .. } => {
                let n = self.add(FlowOp::Wait, *span, false);
                self.edge(cur, n);
                n
            }
        }
    }

    fn lvalue_write(&mut self, lhs: &LValue, value: FlowExpr, span: Span, synthetic: bool) -> u32 {
        match self.slot_of(lhs.name()) {
            Some(dst) => {
                let index = match lhs {
                    LValue::Index { index, .. } => Some(self.expr(index)),
                    LValue::Name { .. } => None,
                };
                self.add(FlowOp::Assign { dst, index, value }, span, synthetic)
            }
            // Assignment to a constant or unknown name: no-op node so the
            // chain stays connected (the resolver reports the error).
            None => self.add(FlowOp::Join, span, synthetic),
        }
    }

    fn expr(&mut self, e: &Expr) -> FlowExpr {
        match e {
            Expr::Int { value, .. } => FlowExpr::Const(i128::from(*value)),
            Expr::Bool { value, .. } => FlowExpr::Const(i128::from(*value)),
            Expr::Name { name, .. } => {
                if let Some(&i) = self.by_name.get(name) {
                    return FlowExpr::Slot(i);
                }
                if let Some(&v) = self.cx.consts.get(name.as_str()) {
                    return FlowExpr::Const(v);
                }
                match self.slot_of(name) {
                    Some(i) => FlowExpr::Slot(i),
                    None => FlowExpr::Unknown,
                }
            }
            Expr::Index { name, index, .. } => {
                let index = Box::new(self.expr(index));
                match self.slot_of(name) {
                    Some(slot) => FlowExpr::Index { slot, index },
                    None => FlowExpr::Unknown,
                }
            }
            Expr::Call { callee, args, .. } => FlowExpr::Call {
                callee: callee.clone(),
                args: args.iter().map(|a| self.expr(a)).collect(),
            },
            Expr::Binary { op, lhs, rhs, .. } => FlowExpr::Binary {
                op: *op,
                lhs: Box::new(self.expr(lhs)),
                rhs: Box::new(self.expr(rhs)),
            },
            Expr::Unary { op, operand, .. } => FlowExpr::Unary {
                op: *op,
                operand: Box::new(self.expr(operand)),
            },
        }
    }
}

/// FNV-1a, the same cheap stable hash used elsewhere in the workspace.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn u8(&mut self, b: u8) {
        self.0 ^= u64::from(b);
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }
    fn u32(&mut self, v: u32) {
        for b in v.to_le_bytes() {
            self.u8(b);
        }
    }
    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.u8(b);
        }
    }
    fn i128(&mut self, v: i128) {
        for b in v.to_le_bytes() {
            self.u8(b);
        }
    }
    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        for b in s.as_bytes() {
            self.u8(*b);
        }
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

fn structural_hash(b: &FlowBehavior) -> u64 {
    let mut h = Fnv::new();
    h.str(&b.name);
    h.u8(u8::from(b.is_process));
    h.u32(b.ret_width.map_or(u32::MAX, |w| w));
    for s in &b.slots {
        h.str(&s.name);
        h.u8(match s.kind {
            SlotKind::Param => 0,
            SlotKind::Local => 1,
            SlotKind::LoopVar => 2,
            SlotKind::Global => 3,
            SlotKind::Port(Direction::In) => 4,
            SlotKind::Port(Direction::Out) => 5,
            SlotKind::Port(Direction::Inout) => 6,
        });
        h.u32(s.width.map_or(u32::MAX, |w| w));
        h.u8(u8::from(s.is_bool));
        h.u8(u8::from(s.is_array));
    }
    for n in &b.nodes {
        h.u8(u8::from(n.synthetic));
        hash_op(&mut h, &n.op);
        h.u64(n.succs.len() as u64);
        for &s in &n.succs {
            h.u32(s);
        }
    }
    h.u32(b.exit);
    for &w in &b.widen_points {
        h.u32(w);
    }
    h.finish()
}

fn hash_op(h: &mut Fnv, op: &FlowOp) {
    match op {
        FlowOp::Entry => h.u8(0),
        FlowOp::Exit => h.u8(1),
        FlowOp::Join => h.u8(2),
        FlowOp::Assign { dst, index, value } => {
            h.u8(3);
            h.u32(*dst);
            h.u8(u8::from(index.is_some()));
            if let Some(ix) = index {
                hash_expr(h, ix);
            }
            hash_expr(h, value);
        }
        FlowOp::Branch { cond, loop_header } => {
            h.u8(4);
            h.u8(u8::from(*loop_header));
            hash_expr(h, cond);
        }
        FlowOp::Call { callee, args } => {
            h.u8(5);
            h.str(callee);
            for a in args {
                hash_expr(h, a);
            }
        }
        FlowOp::Send { target, value } => {
            h.u8(6);
            h.str(target);
            hash_expr(h, value);
        }
        FlowOp::Receive { dst, index } => {
            h.u8(7);
            h.u32(*dst);
            h.u8(u8::from(index.is_some()));
            if let Some(ix) = index {
                hash_expr(h, ix);
            }
        }
        FlowOp::Return { value } => {
            h.u8(8);
            h.u8(u8::from(value.is_some()));
            if let Some(v) = value {
                hash_expr(h, v);
            }
        }
        FlowOp::Wait => h.u8(9),
    }
}

fn hash_expr(h: &mut Fnv, e: &FlowExpr) {
    match e {
        FlowExpr::Const(v) => {
            h.u8(0);
            h.i128(*v);
        }
        FlowExpr::Slot(s) => {
            h.u8(1);
            h.u32(*s);
        }
        FlowExpr::Index { slot, index } => {
            h.u8(2);
            h.u32(*slot);
            hash_expr(h, index);
        }
        FlowExpr::Call { callee, args } => {
            h.u8(3);
            h.str(callee);
            h.u64(args.len() as u64);
            for a in args {
                hash_expr(h, a);
            }
        }
        FlowExpr::Binary { op, lhs, rhs } => {
            h.u8(4);
            h.u8(*op as u8);
            hash_expr(h, lhs);
            hash_expr(h, rhs);
        }
        FlowExpr::Unary { op, operand } => {
            h.u8(5);
            h.u8(*op as u8);
            hash_expr(h, operand);
        }
        FlowExpr::Unknown => h.u8(6),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn program(src: &str) -> FlowProgram {
        FlowProgram::from_spec(&parse(src).expect("parse"))
    }

    #[test]
    fn lowers_straight_line_process_with_back_edge() {
        let p = program(
            "system T;\nvar x : int<8>;\nprocess Main { x = 1; wait 10; }\n",
        );
        let main = p.get("Main").expect("Main");
        assert!(main.is_process);
        assert!(matches!(main.nodes[0].op, FlowOp::Entry));
        // entry → top → assign → wait → {top, exit}
        assert_eq!(main.widen_points, vec![1]);
        let wait = main
            .nodes
            .iter()
            .position(|n| matches!(n.op, FlowOp::Wait))
            .expect("wait node");
        assert!(main.nodes[wait].succs.contains(&1));
        assert!(main.nodes[wait].succs.contains(&main.exit));
    }

    #[test]
    fn for_loop_desugars_with_inclusive_header_and_widen_point() {
        let p = program(
            "system T;\nvar a : int<8>[10];\nproc P() { for i in 0 .. 9 { a[i] = i; } }\n",
        );
        let b = p.get("P").expect("P");
        let header = b
            .nodes
            .iter()
            .position(|n| matches!(n.op, FlowOp::Branch { loop_header: true, .. }))
            .expect("loop header");
        assert_eq!(b.widen_points, vec![header as u32]);
        let FlowOp::Branch { cond, .. } = &b.nodes[header].op else {
            unreachable!();
        };
        // i <= 9 (inclusive upper bound).
        assert!(
            matches!(cond, FlowExpr::Binary { op: BinOp::Le, rhs, .. }
                if **rhs == FlowExpr::Const(9)),
            "{cond:?}"
        );
        // Loop variable got a slot.
        assert!(b.slots.iter().any(|s| s.name == "i" && s.kind == SlotKind::LoopVar));
    }

    #[test]
    fn named_constants_fold_into_expressions() {
        let p = program(
            "system T;\nconst N = 4;\nconst M = N * 2;\nvar x : int<8>;\n\
             proc P() { x = M + 1; }\n",
        );
        let b = p.get("P").expect("P");
        let assign = b
            .nodes
            .iter()
            .find_map(|n| match &n.op {
                FlowOp::Assign { value, .. } => Some(value.clone()),
                _ => None,
            })
            .expect("assign");
        assert_eq!(
            assign,
            FlowExpr::Binary {
                op: BinOp::Add,
                lhs: Box::new(FlowExpr::Const(8)),
                rhs: Box::new(FlowExpr::Const(1)),
            }
        );
    }

    #[test]
    fn hash_is_span_agnostic_but_structure_sensitive() {
        let a = program("system T;\nvar x : int<8>;\nproc P() { x = 1; }\n");
        let b = program("system T;\n\n\nvar x : int<8>;\n\n\nproc   P() { x =   1; }\n");
        let c = program("system T;\nvar x : int<8>;\nproc P() { x = 2; }\n");
        assert_eq!(
            a.get("P").map(|p| p.hash),
            b.get("P").map(|p| p.hash),
            "whitespace must not change the hash"
        );
        assert_ne!(
            a.get("P").map(|p| p.hash),
            c.get("P").map(|p| p.hash),
            "a changed literal must change the hash"
        );
    }

    #[test]
    fn lowering_one_behavior_matches_the_whole_program() {
        let src = "system T;\nconst N = 4;\nport p : in int<8>;\nvar x : int<8>;\n\
                   func F(v : int<8>) -> int<8> { return v + N; }\n\
                   process Main { x = F(p); wait 1; }\n";
        let spec = parse(src).expect("parse");
        let whole = FlowProgram::from_spec(&spec);
        let cx = FlowLowering::new(&spec);
        for (decl, b) in spec.behaviors.iter().zip(&whole.behaviors) {
            let one = cx.lower(decl);
            assert_eq!(one.hash, b.hash, "{}", decl.name);
            assert_eq!(one.nodes, b.nodes, "{}", decl.name);
            assert_eq!(one.slots, b.slots, "{}", decl.name);
        }
        assert_eq!(whole.position("Main"), Some(1));
        assert_eq!(whole.position("Nope"), None);
    }

    #[test]
    fn suppressions_collect_and_fingerprint() {
        let p = program(
            "system T;\n@allow(A008)\nvar x : int<8>;\n\
             @allow(A006, A009)\nprocess Main { x = 1; }\n",
        );
        assert!(p.suppressions.var_allows("x", "A008"));
        assert!(p.suppressions.behavior_allows("Main", "A006"));
        assert!(p.suppressions.behavior_allows("Main", "A009"));
        assert!(!p.suppressions.behavior_allows("Main", "A007"));
        let q = program("system T;\nvar x : int<8>;\nprocess Main { x = 1; }\n");
        assert!(q.suppressions.is_empty());
        assert_ne!(p.suppressions.fingerprint(), q.suppressions.fingerprint());
    }

    #[test]
    fn return_wires_to_exit_and_code_after_is_disconnected() {
        let p = program(
            "system T;\nvar x : int<8>;\n\
             func F(v : int<8>) -> int<8> { return v; x = 3; }\n",
        );
        let b = p.get("F").expect("F");
        let ret = b
            .nodes
            .iter()
            .position(|n| matches!(n.op, FlowOp::Return { .. }))
            .expect("return");
        assert_eq!(b.nodes[ret].succs, vec![b.exit]);
        // The trailing assignment has no path from entry.
        let preds = b.preds();
        let assign = b
            .nodes
            .iter()
            .position(|n| matches!(n.op, FlowOp::Assign { .. }))
            .expect("assign");
        let mut reach = vec![false; b.nodes.len()];
        let mut stack = vec![0u32];
        while let Some(n) = stack.pop() {
            if reach[n as usize] {
                continue;
            }
            reach[n as usize] = true;
            stack.extend(&b.nodes[n as usize].succs);
        }
        assert!(!reach[assign], "code after return must be unreachable");
        let _ = preds;
    }

    #[test]
    fn corpus_lowers_without_unknowns() {
        for entry in crate::corpus::all() {
            let spec = parse(entry.source).expect("corpus parses");
            let p = FlowProgram::from_spec(&spec);
            for b in &p.behaviors {
                for n in &b.nodes {
                    let mut has_unknown = false;
                    n.for_each_use(&mut |_| {});
                    check_no_unknown(&n.op, &mut has_unknown);
                    assert!(
                        !has_unknown,
                        "{}::{} lowered with Unknown in {:?}",
                        entry.name, b.name, n.op
                    );
                }
            }
        }
    }

    fn check_no_unknown(op: &FlowOp, flag: &mut bool) {
        fn expr(e: &FlowExpr, flag: &mut bool) {
            match e {
                FlowExpr::Unknown => *flag = true,
                FlowExpr::Index { index, .. } => expr(index, flag),
                FlowExpr::Call { args, .. } => args.iter().for_each(|a| expr(a, flag)),
                FlowExpr::Binary { lhs, rhs, .. } => {
                    expr(lhs, flag);
                    expr(rhs, flag);
                }
                FlowExpr::Unary { operand, .. } => expr(operand, flag),
                _ => {}
            }
        }
        match op {
            FlowOp::Assign { index, value, .. } => {
                if let Some(ix) = index {
                    expr(ix, flag);
                }
                expr(value, flag);
            }
            FlowOp::Branch { cond, .. } => expr(cond, flag),
            FlowOp::Call { args, .. } => args.iter().for_each(|a| expr(a, flag)),
            FlowOp::Send { value, .. } => expr(value, flag),
            FlowOp::Return { value: Some(v) } => expr(v, flag),
            _ => {}
        }
    }
}

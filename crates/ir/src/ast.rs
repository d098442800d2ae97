//! The mini-C abstract syntax: modules, functions, statements, expressions.
//!
//! Semantics are 32-bit two's-complement throughout (wrapping add/sub/mul,
//! truncating signed division, shift counts taken mod 32, byte loads
//! zero-extended) — both code generators and the interpreter agree on this
//! exactly, which is what makes three-way differential testing possible.
//!
//! ## Call placement restriction
//!
//! Procedure calls may appear only as the entire right-hand side of an
//! assignment (`x = f(a, b)`) or as an expression statement (`f(a, b);`),
//! and call arguments must themselves be call-free. This mirrors what a
//! simple 1981 compiler would do with temporaries and keeps expression
//! temporaries dead across calls on *both* targets. [`Module::validate`]
//! enforces it. Multiplication and division are ordinary operators — on
//! RISC I they lower to runtime routines whose window isolates them from
//! the caller's temporaries.

use std::collections::HashMap;
use std::fmt;

/// Index of a local variable within a function (parameters come first).
pub type VarId = usize;
/// Index of a function within a module.
pub type FuncId = usize;
/// Index of a global array within a module.
pub type GlobalId = usize;

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication (software routine on RISC I).
    Mul,
    /// Truncating signed division (software routine on RISC I; division by
    /// zero is a runtime error on every target).
    Div,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Left shift (count mod 32).
    Shl,
    /// Arithmetic right shift (count mod 32).
    Shr,
}

/// Comparison operators (signed).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Less than.
    Lt,
    /// Less or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater or equal.
    Ge,
}

impl CmpOp {
    /// The negated comparison (used to branch around `then`-blocks).
    pub fn negate(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Ne,
            CmpOp::Ne => CmpOp::Eq,
            CmpOp::Lt => CmpOp::Ge,
            CmpOp::Le => CmpOp::Gt,
            CmpOp::Gt => CmpOp::Le,
            CmpOp::Ge => CmpOp::Lt,
        }
    }

    /// Evaluates the comparison on concrete values.
    pub fn eval(self, a: i32, b: i32) -> bool {
        match self {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
        }
    }
}

/// Expressions. All expressions are side-effect free except [`Expr::Call`],
/// whose placement is restricted (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expr {
    /// A 32-bit constant.
    Const(i32),
    /// A local variable (parameter or scratch).
    Local(VarId),
    /// `global[idx]` — 32-bit word load from a word array.
    LoadW(GlobalId, Box<Expr>),
    /// `global[idx]` — zero-extended byte load from a byte array.
    LoadB(GlobalId, Box<Expr>),
    /// `a <op> b`.
    Bin(BinOp, Box<Expr>, Box<Expr>),
    /// `f(args…)` — at most 6 arguments, call-free arguments.
    Call(FuncId, Vec<Expr>),
}

impl Expr {
    /// Whether the expression tree contains a call.
    pub fn has_call(&self) -> bool {
        match self {
            Expr::Const(_) | Expr::Local(_) => false,
            Expr::LoadW(_, i) | Expr::LoadB(_, i) => i.has_call(),
            Expr::Bin(_, a, b) => a.has_call() || b.has_call(),
            Expr::Call(..) => true,
        }
    }
}

/// A branch condition: `a <cmp> b`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cond {
    /// The comparison.
    pub op: CmpOp,
    /// Left operand.
    pub lhs: Expr,
    /// Right operand.
    pub rhs: Expr,
}

/// Statements.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Stmt {
    /// `local := expr` (the only place a call may appear as the whole RHS).
    Assign(VarId, Expr),
    /// `global[idx] := value` — 32-bit word store.
    StoreW(GlobalId, Expr, Expr),
    /// `global[idx] := value` — byte store (low 8 bits).
    StoreB(GlobalId, Expr, Expr),
    /// `if cond { then } else { els }`.
    If {
        /// The condition.
        cond: Cond,
        /// Taken when the condition holds.
        then: Vec<Stmt>,
        /// Taken otherwise (may be empty).
        els: Vec<Stmt>,
    },
    /// `while cond { body }`.
    While {
        /// Loop condition, tested before each iteration.
        cond: Cond,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// `return expr` (call-free expression).
    Return(Expr),
    /// Expression statement — a call for its side effects.
    Expr(Expr),
}

/// A global array definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Global {
    /// Diagnostic name.
    pub name: String,
    /// Element count.
    pub len: usize,
    /// Element width: `false` = 32-bit words, `true` = bytes.
    pub bytes: bool,
    /// Optional initial words/bytes (shorter than `len` is zero-padded).
    pub init: Vec<i32>,
}

/// One procedure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Function {
    /// Diagnostic name.
    pub name: String,
    /// Number of parameters (locals `0..params`).
    pub params: usize,
    /// Total locals including parameters.
    pub locals: usize,
    /// Body. Falling off the end returns 0.
    pub body: Vec<Stmt>,
}

/// A whole program. Function 0 is the entry point (`main`).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Module {
    /// Functions; index 0 is `main`.
    pub functions: Vec<Function>,
    /// Global arrays.
    pub globals: Vec<Global>,
}

/// A structural validity error found by [`Module::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidateError {
    /// Module has no functions.
    NoEntry,
    /// An expression names a function that does not exist.
    BadFuncRef(FuncId),
    /// An expression names a global that does not exist.
    BadGlobalRef(GlobalId),
    /// A variable index is out of the function's `locals` range.
    BadVarRef {
        /// Offending function.
        func: FuncId,
        /// Offending variable index.
        var: VarId,
    },
    /// A function declares more parameters than locals.
    ParamsExceedLocals(FuncId),
    /// More than 6 parameters (the register-window argument limit).
    TooManyParams(FuncId),
    /// A call site passes the wrong number of arguments.
    ArityMismatch {
        /// Calling function.
        func: FuncId,
        /// Called function.
        callee: FuncId,
        /// Arguments supplied.
        got: usize,
    },
    /// A call appears nested inside an expression (see module docs).
    NestedCall(FuncId),
    /// A word index is applied to a byte array or vice versa.
    WidthMismatch(GlobalId),
}

impl fmt::Display for ValidateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidateError::NoEntry => write!(f, "module has no functions"),
            ValidateError::BadFuncRef(i) => write!(f, "reference to nonexistent function {i}"),
            ValidateError::BadGlobalRef(i) => write!(f, "reference to nonexistent global {i}"),
            ValidateError::BadVarRef { func, var } => {
                write!(f, "function {func} uses out-of-range local {var}")
            }
            ValidateError::ParamsExceedLocals(i) => {
                write!(f, "function {i} declares more params than locals")
            }
            ValidateError::TooManyParams(i) => {
                write!(f, "function {i} has more than 6 parameters")
            }
            ValidateError::ArityMismatch { func, callee, got } => write!(
                f,
                "function {func} calls function {callee} with {got} arguments"
            ),
            ValidateError::NestedCall(i) => write!(
                f,
                "function {i} nests a call inside an expression (calls must be a whole assignment RHS or a statement)"
            ),
            ValidateError::WidthMismatch(g) => {
                write!(f, "global {g} accessed at the wrong width")
            }
        }
    }
}

impl std::error::Error for ValidateError {}

impl Module {
    /// Checks every structural invariant the code generators rely on.
    ///
    /// # Errors
    /// The first [`ValidateError`] found.
    pub fn validate(&self) -> Result<(), ValidateError> {
        if self.functions.is_empty() {
            return Err(ValidateError::NoEntry);
        }
        let arities: HashMap<FuncId, usize> = self
            .functions
            .iter()
            .enumerate()
            .map(|(i, f)| (i, f.params))
            .collect();
        for (fid, func) in self.functions.iter().enumerate() {
            if func.params > func.locals {
                return Err(ValidateError::ParamsExceedLocals(fid));
            }
            if func.params > 6 {
                return Err(ValidateError::TooManyParams(fid));
            }
            self.check_block(fid, func, &func.body, &arities)?;
        }
        Ok(())
    }

    fn check_block(
        &self,
        fid: FuncId,
        func: &Function,
        block: &[Stmt],
        arities: &HashMap<FuncId, usize>,
    ) -> Result<(), ValidateError> {
        for stmt in block {
            match stmt {
                Stmt::Assign(v, e) => {
                    if *v >= func.locals {
                        return Err(ValidateError::BadVarRef { func: fid, var: *v });
                    }
                    // The RHS may be a top-level call; its arguments must be
                    // call-free, and anything else must be call-free.
                    match e {
                        Expr::Call(callee, args) => {
                            self.check_call(fid, *callee, args, arities)?;
                            for a in args {
                                self.check_expr(fid, func, a, false)?;
                            }
                        }
                        other => self.check_expr(fid, func, other, false)?,
                    }
                }
                Stmt::Expr(Expr::Call(callee, args)) => {
                    self.check_call(fid, *callee, args, arities)?;
                    for a in args {
                        self.check_expr(fid, func, a, false)?;
                    }
                }
                Stmt::Expr(e) => self.check_expr(fid, func, e, false)?,
                Stmt::StoreW(g, i, v) => {
                    self.check_global(*g, false)?;
                    self.check_expr(fid, func, i, false)?;
                    self.check_expr(fid, func, v, false)?;
                }
                Stmt::StoreB(g, i, v) => {
                    self.check_global(*g, true)?;
                    self.check_expr(fid, func, i, false)?;
                    self.check_expr(fid, func, v, false)?;
                }
                Stmt::If { cond, then, els } => {
                    self.check_expr(fid, func, &cond.lhs, false)?;
                    self.check_expr(fid, func, &cond.rhs, false)?;
                    self.check_block(fid, func, then, arities)?;
                    self.check_block(fid, func, els, arities)?;
                }
                Stmt::While { cond, body } => {
                    self.check_expr(fid, func, &cond.lhs, false)?;
                    self.check_expr(fid, func, &cond.rhs, false)?;
                    self.check_block(fid, func, body, arities)?;
                }
                Stmt::Return(e) => self.check_expr(fid, func, e, false)?,
            }
        }
        Ok(())
    }

    fn check_call(
        &self,
        fid: FuncId,
        callee: FuncId,
        args: &[Expr],
        arities: &HashMap<FuncId, usize>,
    ) -> Result<(), ValidateError> {
        let arity = *arities
            .get(&callee)
            .ok_or(ValidateError::BadFuncRef(callee))?;
        if args.len() != arity {
            return Err(ValidateError::ArityMismatch {
                func: fid,
                callee,
                got: args.len(),
            });
        }
        Ok(())
    }

    fn check_global(&self, g: GlobalId, want_bytes: bool) -> Result<(), ValidateError> {
        let def = self.globals.get(g).ok_or(ValidateError::BadGlobalRef(g))?;
        if def.bytes != want_bytes {
            return Err(ValidateError::WidthMismatch(g));
        }
        Ok(())
    }

    fn check_expr(
        &self,
        fid: FuncId,
        func: &Function,
        e: &Expr,
        _top: bool,
    ) -> Result<(), ValidateError> {
        match e {
            Expr::Const(_) => Ok(()),
            Expr::Local(v) => {
                if *v >= func.locals {
                    Err(ValidateError::BadVarRef { func: fid, var: *v })
                } else {
                    Ok(())
                }
            }
            Expr::LoadW(g, i) => {
                self.check_global(*g, false)?;
                self.check_expr(fid, func, i, false)
            }
            Expr::LoadB(g, i) => {
                self.check_global(*g, true)?;
                self.check_expr(fid, func, i, false)
            }
            Expr::Bin(_, a, b) => {
                self.check_expr(fid, func, a, false)?;
                self.check_expr(fid, func, b, false)
            }
            Expr::Call(..) => Err(ValidateError::NestedCall(fid)),
        }
    }
}

/// Terse constructors for writing IR programs by hand — the workload suite
/// is built entirely from these.
pub mod dsl {
    use super::*;

    /// A module from functions and globals.
    pub fn module(functions: Vec<Function>, globals: Vec<Global>) -> Module {
        Module { functions, globals }
    }

    /// A function.
    pub fn function(name: &str, params: usize, locals: usize, body: Vec<Stmt>) -> Function {
        Function {
            name: name.to_string(),
            params,
            locals,
            body,
        }
    }

    /// A word-array global, zero-initialised.
    pub fn global_words(name: &str, len: usize) -> Global {
        Global {
            name: name.to_string(),
            len,
            bytes: false,
            init: Vec::new(),
        }
    }

    /// A word-array global with initial contents.
    pub fn global_init(name: &str, init: Vec<i32>) -> Global {
        Global {
            name: name.to_string(),
            len: init.len(),
            bytes: false,
            init,
        }
    }

    /// A byte-array global, zero-initialised.
    pub fn global_bytes(name: &str, len: usize) -> Global {
        Global {
            name: name.to_string(),
            len,
            bytes: true,
            init: Vec::new(),
        }
    }

    /// A byte-array global with initial contents (values taken mod 256).
    pub fn global_bytes_init(name: &str, init: Vec<i32>) -> Global {
        Global {
            name: name.to_string(),
            len: init.len(),
            bytes: true,
            init,
        }
    }

    /// Constant.
    pub fn konst(v: i32) -> Expr {
        Expr::Const(v)
    }
    /// Local variable reference.
    pub fn local(v: VarId) -> Expr {
        Expr::Local(v)
    }
    /// Word load `g[idx]`.
    pub fn loadw(g: GlobalId, idx: Expr) -> Expr {
        Expr::LoadW(g, Box::new(idx))
    }
    /// Byte load `g[idx]` (zero-extended).
    pub fn loadb(g: GlobalId, idx: Expr) -> Expr {
        Expr::LoadB(g, Box::new(idx))
    }
    /// Call `f(args…)`.
    pub fn call(f: FuncId, args: Vec<Expr>) -> Expr {
        Expr::Call(f, args)
    }

    macro_rules! binops {
        ($($name:ident => $op:ident),* $(,)?) => {
            $(#[doc = concat!("`a ", stringify!($name), " b`.")]
              pub fn $name(a: Expr, b: Expr) -> Expr {
                  Expr::Bin(BinOp::$op, Box::new(a), Box::new(b))
              })*
        };
    }
    binops! {
        add => Add, sub => Sub, mul => Mul, div => Div,
        band => And, bor => Or, bxor => Xor, shl => Shl, shr => Shr,
    }

    /// A comparison condition.
    pub fn cmp(op: CmpOp, lhs: Expr, rhs: Expr) -> Cond {
        Cond { op, lhs, rhs }
    }
    /// `lhs == rhs`.
    pub fn eq(lhs: Expr, rhs: Expr) -> Cond {
        cmp(CmpOp::Eq, lhs, rhs)
    }
    /// `lhs != rhs`.
    pub fn ne(lhs: Expr, rhs: Expr) -> Cond {
        cmp(CmpOp::Ne, lhs, rhs)
    }
    /// `lhs < rhs`.
    pub fn lt(lhs: Expr, rhs: Expr) -> Cond {
        cmp(CmpOp::Lt, lhs, rhs)
    }
    /// `lhs <= rhs`.
    pub fn le(lhs: Expr, rhs: Expr) -> Cond {
        cmp(CmpOp::Le, lhs, rhs)
    }
    /// `lhs > rhs`.
    pub fn gt(lhs: Expr, rhs: Expr) -> Cond {
        cmp(CmpOp::Gt, lhs, rhs)
    }
    /// `lhs >= rhs`.
    pub fn ge(lhs: Expr, rhs: Expr) -> Cond {
        cmp(CmpOp::Ge, lhs, rhs)
    }

    /// `var := expr`.
    pub fn assign(v: VarId, e: Expr) -> Stmt {
        Stmt::Assign(v, e)
    }
    /// `g[idx] := value` (words).
    pub fn storew(g: GlobalId, idx: Expr, value: Expr) -> Stmt {
        Stmt::StoreW(g, idx, value)
    }
    /// `g[idx] := value` (bytes).
    pub fn storeb(g: GlobalId, idx: Expr, value: Expr) -> Stmt {
        Stmt::StoreB(g, idx, value)
    }
    /// `if cond { then }`.
    pub fn if_then(cond: Cond, then: Vec<Stmt>) -> Stmt {
        Stmt::If {
            cond,
            then,
            els: Vec::new(),
        }
    }
    /// `if cond { then } else { els }`.
    pub fn if_else(cond: Cond, then: Vec<Stmt>, els: Vec<Stmt>) -> Stmt {
        Stmt::If { cond, then, els }
    }
    /// `while cond { body }`.
    pub fn while_loop(cond: Cond, body: Vec<Stmt>) -> Stmt {
        Stmt::While { cond, body }
    }
    /// `return expr`.
    pub fn ret(e: Expr) -> Stmt {
        Stmt::Return(e)
    }
    /// Expression statement (a call for effect).
    pub fn expr(e: Expr) -> Stmt {
        Stmt::Expr(e)
    }
}

pub use dsl::module;

#[cfg(test)]
mod tests {
    use super::dsl::*;
    use super::*;

    #[test]
    fn validate_accepts_wellformed() {
        let m = module(
            vec![
                function(
                    "main",
                    1,
                    2,
                    vec![assign(1, call(1, vec![local(0)])), ret(local(1))],
                ),
                function("helper", 1, 1, vec![ret(add(local(0), konst(1)))]),
            ],
            vec![],
        );
        assert_eq!(m.validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_nested_call() {
        let m = module(
            vec![function(
                "main",
                0,
                1,
                vec![ret(add(call(0, vec![]), konst(1)))],
            )],
            vec![],
        );
        assert_eq!(m.validate(), Err(ValidateError::NestedCall(0)));
    }

    #[test]
    fn validate_rejects_call_in_argument() {
        let m = module(
            vec![
                function(
                    "main",
                    0,
                    1,
                    vec![assign(0, call(1, vec![call(1, vec![konst(1)])]))],
                ),
                function("f", 1, 1, vec![ret(local(0))]),
            ],
            vec![],
        );
        assert_eq!(m.validate(), Err(ValidateError::NestedCall(0)));
    }

    #[test]
    fn validate_rejects_arity_and_refs() {
        let m = module(
            vec![function("main", 0, 0, vec![expr(call(7, vec![]))])],
            vec![],
        );
        assert_eq!(m.validate(), Err(ValidateError::BadFuncRef(7)));

        let m = module(vec![function("main", 0, 0, vec![ret(local(3))])], vec![]);
        assert_eq!(
            m.validate(),
            Err(ValidateError::BadVarRef { func: 0, var: 3 })
        );

        let m = module(
            vec![function("main", 0, 0, vec![ret(loadw(0, konst(0)))])],
            vec![],
        );
        assert_eq!(m.validate(), Err(ValidateError::BadGlobalRef(0)));
    }

    #[test]
    fn validate_rejects_width_mismatch() {
        let m = module(
            vec![function("main", 0, 0, vec![ret(loadb(0, konst(0)))])],
            vec![global_words("w", 4)],
        );
        assert_eq!(m.validate(), Err(ValidateError::WidthMismatch(0)));
    }

    #[test]
    fn validate_rejects_too_many_params() {
        let m = module(vec![function("main", 7, 7, vec![])], vec![]);
        assert_eq!(m.validate(), Err(ValidateError::TooManyParams(0)));
    }

    #[test]
    fn cmpop_negation_is_complement() {
        for op in [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ] {
            for (a, b) in [(1, 2), (2, 1), (3, 3), (-1, 1)] {
                assert_eq!(op.eval(a, b), !op.negate().eval(a, b));
            }
        }
    }

    #[test]
    fn has_call_walks_the_tree() {
        assert!(!add(local(0), konst(1)).has_call());
        assert!(loadw(0, call(0, vec![])).has_call());
    }
}

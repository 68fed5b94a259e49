//! The load/store intermediate representation.
//!
//! The IR mirrors what the paper's algorithm (Fig. 4) consumes from LLVM
//! bitcode compiled at `-O0 -fno-inline`: every named local lives in a stack
//! slot, reads are `Load`s, writes are `Store`s, and struct fields of local
//! aggregates are separately-addressable `Field` places so the liveness
//! analysis can be field-sensitive.

use crate::{
    ast::BinOp,
    span::{
        FileId,
        Span, //
    },
    types::Type,
};

/// Index of a local stack slot within a function.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LocalId(pub u32);

/// Index of an SSA-style value temporary within a function.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TempId(pub u32);

/// Index of a basic block within a function.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u32);

/// Index of a function within a [`crate::program::Program`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FuncId(pub u32);

/// The variable granule tracked by the liveness analysis: either a whole
/// local slot or one field of a local aggregate (the paper's `v#n` naming).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum VarKey {
    /// A whole local variable.
    Local(LocalId),
    /// Field `n` of a local struct variable.
    Field(LocalId, u32),
}

impl VarKey {
    /// The local slot this key belongs to.
    pub fn local(&self) -> LocalId {
        match *self {
            VarKey::Local(l) => l,
            VarKey::Field(l, _) => l,
        }
    }
}

/// An operand of an instruction.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Operand {
    /// A value temporary.
    Temp(TempId),
    /// An integer constant.
    Const(i64),
    /// A string constant (pointer to read-only data).
    Str(String),
    /// The address of a named function.
    FuncAddr(String),
    /// The null pointer.
    Null,
}

impl Operand {
    /// The constant inside, if this operand is a constant.
    pub fn as_const(&self) -> Option<i64> {
        match self {
            Operand::Const(c) => Some(*c),
            _ => None,
        }
    }
}

/// A memory location an instruction loads from or stores to.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Place {
    /// A whole local slot.
    Local(LocalId),
    /// Field `n` of a local aggregate.
    Field(LocalId, u32),
    /// A global variable, by name.
    Global(String),
    /// Field `n` of a global aggregate.
    GlobalField(String, u32),
    /// The memory a temp points to (`*p`).
    Deref(TempId),
    /// Field `n` of the memory a temp points to (`p->f`).
    DerefField(TempId, u32),
}

impl Place {
    /// The [`VarKey`] this place defines or uses, when it is a direct local
    /// access the liveness analysis can track. Deref and global places return
    /// `None`; they are the domain of the pointer analysis.
    pub fn var_key(&self) -> Option<VarKey> {
        match *self {
            Place::Local(l) => Some(VarKey::Local(l)),
            Place::Field(l, n) => Some(VarKey::Field(l, n)),
            _ => None,
        }
    }
}

/// Unary operation kinds at the IR level.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum IrUnOp {
    /// Arithmetic negation.
    Neg,
    /// Logical not (produces 0/1).
    Not,
    /// Bitwise complement.
    BitNot,
}

/// The callee of a call instruction.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Callee {
    /// A direct call to a named function.
    Direct(String),
    /// An indirect call through a function-pointer value.
    Indirect(TempId),
}

/// How the stored value of a `Store` was produced; used by the detector to
/// classify candidates (return values, parameter entries) and by the cursor
/// pruner (self-increment by a constant).
#[derive(Clone, Debug, PartialEq, Eq, Default, Hash)]
pub enum StoreInfo {
    /// An ordinary store.
    #[default]
    Normal,
    /// The implicit store of parameter `index`'s incoming value at entry.
    ParamInit {
        /// Zero-based parameter index.
        index: usize,
    },
    /// The stored value is the return value of a call to `callee`.
    RetVal {
        /// Name of the called function (resolved pointee for indirect calls).
        callee: String,
        /// Whether the destination slot is a compiler-synthesized temp slot,
        /// i.e. the source ignored the return value entirely.
        synthetic_dst: bool,
    },
    /// The stored value is `old(place) + delta` for constant `delta`
    /// (increment/decrement or `p = p + c`), the cursor shape of §5.2.
    SelfOffset {
        /// The constant offset added to the place's previous value.
        delta: i64,
    },
}

/// One IR instruction.
#[derive(Clone, Debug, Hash)]
pub enum Inst {
    /// `dst = load place`.
    Load {
        /// Destination temp.
        dst: TempId,
        /// Source location.
        place: Place,
        /// Source span.
        span: Span,
    },
    /// `store place, value`.
    Store {
        /// Destination location.
        place: Place,
        /// Stored value.
        value: Operand,
        /// Provenance of the stored value.
        info: StoreInfo,
        /// Source span.
        span: Span,
    },
    /// `dst = op lhs, rhs`.
    Bin {
        /// Destination temp.
        dst: TempId,
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Operand,
        /// Right operand.
        rhs: Operand,
        /// Source span.
        span: Span,
    },
    /// `dst = op operand`.
    Un {
        /// Destination temp.
        dst: TempId,
        /// Operator.
        op: IrUnOp,
        /// Operand.
        operand: Operand,
        /// Source span.
        span: Span,
    },
    /// `dst = &place` — the address of a slot is taken, which makes the slot
    /// escape into the pointer world.
    AddrOf {
        /// Destination temp.
        dst: TempId,
        /// Whose address is taken.
        place: Place,
        /// Source span.
        span: Span,
    },
    /// `dst = call callee(args)`; `dst` is `None` for void calls.
    Call {
        /// Result temp, when the callee returns a value.
        dst: Option<TempId>,
        /// Who is called.
        callee: Callee,
        /// Arguments in order.
        args: Vec<Operand>,
        /// Source span.
        span: Span,
    },
}

impl Inst {
    /// The span of the instruction.
    pub fn span(&self) -> Span {
        match self {
            Inst::Load { span, .. }
            | Inst::Store { span, .. }
            | Inst::Bin { span, .. }
            | Inst::Un { span, .. }
            | Inst::AddrOf { span, .. }
            | Inst::Call { span, .. } => *span,
        }
    }
}

/// A basic-block terminator.
#[derive(Clone, Debug, Hash)]
pub enum Terminator {
    /// Unconditional branch.
    Br(BlockId),
    /// Two-way conditional branch.
    CondBr {
        /// Branch condition (nonzero = then).
        cond: Operand,
        /// Target when nonzero.
        then_bb: BlockId,
        /// Target when zero.
        else_bb: BlockId,
    },
    /// Function return with optional value.
    Ret {
        /// Returned value, if any.
        value: Option<Operand>,
        /// Span of the `return` (or the closing brace for implicit returns).
        span: Span,
    },
    /// Control never reaches here (e.g. after `break` path pruning).
    Unreachable,
}

impl Terminator {
    /// The successor blocks of this terminator.
    pub fn successors(&self) -> Vec<BlockId> {
        match self {
            Terminator::Br(b) => vec![*b],
            Terminator::CondBr {
                then_bb, else_bb, ..
            } => {
                if then_bb == else_bb {
                    vec![*then_bb]
                } else {
                    vec![*then_bb, *else_bb]
                }
            }
            Terminator::Ret { .. } | Terminator::Unreachable => Vec::new(),
        }
    }
}

/// A basic block: straight-line instructions plus one terminator.
#[derive(Clone, Debug, Hash)]
pub struct BasicBlock {
    /// Instructions in execution order.
    pub insts: Vec<Inst>,
    /// The terminator.
    pub term: Terminator,
}

/// Why a local slot exists.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum LocalKind {
    /// A named source-level variable.
    Named,
    /// The slot backing parameter `n`.
    Param(usize),
    /// A compiler-synthesized slot (e.g. the implicit destination of an
    /// ignored call result: `[tmp] = printf(...)`).
    Synthetic,
}

/// Metadata for one local slot.
#[derive(Clone, Debug, Hash)]
pub struct LocalInfo {
    /// Source-level name (synthetic slots get `$`-prefixed names).
    pub name: String,
    /// Declared type.
    pub ty: Type,
    /// Declaration span.
    pub span: Span,
    /// Whether the declaration carries an `unused` attribute.
    pub unused_attr: bool,
    /// Why the slot exists.
    pub kind: LocalKind,
}

/// Metadata for one parameter.
#[derive(Clone, Debug, Hash)]
pub struct ParamInfo {
    /// Parameter name.
    pub name: String,
    /// Parameter type.
    pub ty: Type,
    /// The slot the incoming value is spilled into.
    pub local: LocalId,
    /// Whether the parameter carries an `unused` attribute.
    pub unused_attr: bool,
    /// Span of the parameter in the signature.
    pub span: Span,
}

/// Where a temp's value came from; a per-function parallel table.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum TempOrigin {
    /// Result of a direct call to the named function.
    Call(String),
    /// Result of an indirect call.
    IndirectCall,
    /// Loaded from a place.
    Load(Place),
    /// Result of a binary operation.
    Bin(BinOp),
    /// Result of a unary operation.
    Un(IrUnOp),
    /// The address of a place.
    AddrOf(Place),
    /// The incoming value of parameter `n`.
    Param(usize),
}

/// A lowered function.
#[derive(Clone, Debug, Hash)]
pub struct Function {
    /// Function name.
    pub name: String,
    /// Return type.
    pub ret_ty: Type,
    /// Parameters in order.
    pub params: Vec<ParamInfo>,
    /// All local slots.
    pub locals: Vec<LocalInfo>,
    /// Basic blocks; `BlockId` indexes this vector.
    pub blocks: Vec<BasicBlock>,
    /// The entry block.
    pub entry: BlockId,
    /// Origin of each temp; `TempId` indexes this vector.
    pub temp_origins: Vec<TempOrigin>,
    /// Whether the function was `static`.
    pub is_static: bool,
    /// The file the function was defined in.
    pub file: FileId,
    /// Span of the signature.
    pub span: Span,
    /// Spans of every `return` statement in the body (paper: `getRetAuthor`).
    pub return_spans: Vec<Span>,
    /// Names of variables that appear inside preprocessor-guarded statements
    /// in the source of this function, whether or not those statements were
    /// compiled under the active configuration (paper §5.1).
    pub guarded_mentions: std::collections::BTreeSet<String>,
    /// True when the body came out of parse recovery with poisoned
    /// ([`crate::ast::StmtKind::Error`]) regions: part of the source was
    /// discarded, so the detector marks this function's candidates
    /// `low_confidence`.
    pub recovered: bool,
}

impl Function {
    /// Looks up a local slot by source name.
    pub fn local_by_name(&self, name: &str) -> Option<LocalId> {
        self.locals
            .iter()
            .position(|l| l.name == name)
            .map(|i| LocalId(i as u32))
    }

    /// Metadata for a local slot.
    pub fn local(&self, id: LocalId) -> &LocalInfo {
        &self.locals[id.0 as usize]
    }

    /// The block with the given id.
    pub fn block(&self, id: BlockId) -> &BasicBlock {
        &self.blocks[id.0 as usize]
    }

    /// Iterates over `(BlockId, &BasicBlock)` pairs.
    pub fn iter_blocks(&self) -> impl Iterator<Item = (BlockId, &BasicBlock)> {
        self.blocks
            .iter()
            .enumerate()
            .map(|(i, b)| (BlockId(i as u32), b))
    }

    /// A human-readable name for a [`VarKey`], like `buf` or `sctx#2`.
    pub fn var_key_name(&self, key: VarKey) -> String {
        match key {
            VarKey::Local(l) => self.local(l).name.clone(),
            VarKey::Field(l, n) => format!("{}#{n}", self.local(l).name),
        }
    }

    /// Total number of IR instructions.
    pub fn inst_count(&self) -> usize {
        self.blocks.iter().map(|b| b.insts.len()).sum()
    }
}

/// A function known only by prototype (declared but not defined here), or
/// an external library function.
#[derive(Clone, Debug)]
pub struct ExternFunc {
    /// Function name.
    pub name: String,
    /// Return type.
    pub ret_ty: Type,
    /// Parameter types.
    pub param_tys: Vec<Type>,
    /// Where the prototype appeared.
    pub span: Span,
    /// The declaring file.
    pub file: FileId,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn var_key_local_extraction() {
        assert_eq!(VarKey::Field(LocalId(3), 1).local(), LocalId(3));
        assert_eq!(VarKey::Local(LocalId(2)).local(), LocalId(2));
    }

    #[test]
    fn place_var_keys() {
        assert_eq!(
            Place::Local(LocalId(1)).var_key(),
            Some(VarKey::Local(LocalId(1)))
        );
        assert_eq!(
            Place::Field(LocalId(1), 4).var_key(),
            Some(VarKey::Field(LocalId(1), 4))
        );
        assert_eq!(Place::Deref(TempId(0)).var_key(), None);
        assert_eq!(Place::Global("g".into()).var_key(), None);
    }

    #[test]
    fn condbr_to_same_target_dedups_successors() {
        let t = Terminator::CondBr {
            cond: Operand::Const(1),
            then_bb: BlockId(1),
            else_bb: BlockId(1),
        };
        assert_eq!(t.successors(), vec![BlockId(1)]);
    }

    #[test]
    fn ret_has_no_successors() {
        let t = Terminator::Ret {
            value: None,
            span: Span::synthetic(),
        };
        assert!(t.successors().is_empty());
    }
}

(** Loop-invariant code motion over natural loops.

    Hoists pure single-definition computations whose operands are defined
    outside the loop into the position just before the loop header — the
    codegen guarantees the unique loop entry falls through from there, so
    no explicit preheader block is required (asserted, not assumed).

    Loads hoist when the loop contains no call and no store that may alias
    their base (the {!Alias} FORTRAN rule); integer division/remainder
    never hoist (they can trap on a path that was never taken). Any other
    pure instruction hoists from every block of the loop, including one
    under a condition, so the hoisted code runs once per loop entry even
    when that block would not have run: the optimized code can execute
    more instructions than the input. This pass is what recreates the
    paper's register pressure: the sixteen [x[j-k]] values of DMXPY's
    unrolled loop become sixteen float live ranges spanning the inner
    loop.

    Loops are tried innermost (smallest body) first, then by header, each
    once. The CFG, loops, alias roots and def counts are computed once per
    procedure, since hoisting changes none of them; only a hoist that
    empties a block (statements after a [return]) starts the analysis
    over. The result equals re-analysing after every hoisted loop
    (DESIGN.md, "Optimizer: one analysis per procedure").

    Returns the number of instructions hoisted. *)

val run : Ra_ir.Proc.t -> int

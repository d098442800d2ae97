//! Ackermann's function — the paper's canonical call-stress benchmark.
//!
//! `ackermann(3, n)` makes an enormous number of very small procedure
//! calls, which is precisely the behaviour register windows exist for. The
//! paper quotes Ackermann(3,6) among its call-heavy measurements.

use crate::Workload;
use risc1_ir::ast::dsl::*;
use risc1_ir::Module;

/// Builds the workload.
pub fn workload() -> Workload {
    Workload {
        id: "acker",
        description: "Ackermann(3, n): maximal procedure-call stress (paper: Ackermann(3,6))",
        module: build(),
        args: vec![6],
        small_args: vec![3],
        call_heavy: true,
        scale: 1,
    }
}

/// The workload at `scale`: the call count of `ackermann(3, n)` roughly
/// quadruples per increment of `n` (it is `Θ(4^n)`), so `⌈log4 scale⌉`
/// extra levels run at least `scale` times longer. Scales beyond ~25
/// exceed the default `risc1_core::SimConfig::fuel` budget — raise it
/// when running deep Ackermann scales.
pub fn scaled(scale: u32) -> Workload {
    let scale = scale.max(1);
    Workload {
        scale,
        args: vec![(6 + crate::growth_levels(scale, 4, 1)) as i32],
        ..workload()
    }
}

fn build() -> Module {
    // fn ack(m, n) {             // locals: m=0, n=1, t=2
    //   if m == 0 { return n + 1 }
    //   if n == 0 { t = ack(m-1, 1); return t }
    //   t = ack(m, n-1)
    //   t = ack(m-1, t)
    //   return t
    // }
    let ack = function(
        "ack",
        2,
        3,
        vec![
            if_then(eq(local(0), konst(0)), vec![ret(add(local(1), konst(1)))]),
            if_then(
                eq(local(1), konst(0)),
                vec![
                    assign(2, call(1, vec![sub(local(0), konst(1)), konst(1)])),
                    ret(local(2)),
                ],
            ),
            assign(2, call(1, vec![local(0), sub(local(1), konst(1))])),
            assign(2, call(1, vec![sub(local(0), konst(1)), local(2)])),
            ret(local(2)),
        ],
    );
    let main = function(
        "main",
        1,
        2,
        vec![assign(1, call(1, vec![konst(3), local(0)])), ret(local(1))],
    );
    module(vec![main, ack], vec![])
}

#[cfg(test)]
mod tests {
    use super::*;
    use risc1_ir::interpret;

    fn reference(m: i64, n: i64) -> i64 {
        if m == 0 {
            n + 1
        } else if n == 0 {
            reference(m - 1, 1)
        } else {
            reference(m - 1, reference(m, n - 1))
        }
    }

    #[test]
    fn matches_native_reference() {
        for n in 0..5 {
            let r = interpret(&build(), &[n]).unwrap();
            assert_eq!(i64::from(r.value), reference(3, i64::from(n)), "ack(3,{n})");
        }
    }

    #[test]
    fn is_call_dominated() {
        let r = interpret(&build(), &[4]).unwrap();
        assert!(r.calls > 10_000, "ack(3,4) made {} calls", r.calls);
    }
}

//! Bring your own kernel: write a program against the `mim-isa` builder,
//! then put it through the whole toolchain — functional execution, then
//! one `Experiment` comparing the in-order model, detailed simulation,
//! and the out-of-order interval model (paper §6.1).
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example custom_workload
//! ```

use mim::core::StackComponent;
use mim::isa::{ProgramBuilder, Reg};
use mim::prelude::*;

/// A little fixed-point dot-product kernel with a deliberate load-use
/// chain, so both dependency and multiply penalties show up.
fn dot_product(n: usize) -> mim::isa::Program {
    let mut b = ProgramBuilder::named("dot-product");
    let xs: Vec<i64> = (0..n as i64).map(|i| (i * 7) % 100).collect();
    let ys: Vec<i64> = (0..n as i64).map(|i| (i * 13) % 100).collect();
    let x_base = b.data_words(&xs);
    let y_base = b.data_words(&ys);
    let out = b.alloc_words(1);

    let (i, nreg, acc) = (Reg::R1, Reg::R2, Reg::R3);
    let (xa, ya, xv, yv, prod, tmp) = (Reg::R4, Reg::R5, Reg::R6, Reg::R7, Reg::R8, Reg::R9);
    b.li(i, 0);
    b.li(nreg, n as i64);
    b.li(acc, 0);
    let top = b.here();
    b.slli(tmp, i, 3);
    b.addi(xa, tmp, x_base as i64);
    b.addi(ya, tmp, y_base as i64);
    b.ld(xv, xa, 0);
    b.ld(yv, ya, 0);
    b.mul(prod, xv, yv); // load-use into a multiply: worst case in-order
    b.add(acc, acc, prod);
    b.addi(i, i, 1);
    b.blt(i, nreg, top);
    b.li(tmp, out as i64);
    b.st(acc, tmp, 0);
    b.halt();
    b.build()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let program = dot_product(50_000);

    // Functional check first: does it compute the right answer?
    let mut vm = Vm::new(&program);
    vm.run(None)?;
    let result = *vm.memory().last().expect("output word");
    let expected: i64 = (0..50_000i64)
        .map(|i| ((i * 7) % 100) * ((i * 13) % 100))
        .sum();
    assert_eq!(result, expected);
    println!("functional result OK: {result}");

    // One experiment, three evaluators, shared profile.
    let report = Experiment::new()
        .title("custom kernel")
        .workload(WorkloadSpec::program("dot-product", program))
        .evaluators([EvalKind::Model, EvalKind::Sim, EvalKind::Ooo])
        .run()?;

    let in_order = report.get("dot-product", 0, "model").expect("cell");
    let sim = report.get("dot-product", 0, "sim").expect("cell");
    let ooo = report.get("dot-product", 0, "ooo").expect("cell");
    println!(
        "\nin-order:  model CPI {:.3} | simulated CPI {:.3} (error {:+.1}%)",
        in_order.cpi,
        sim.cpi,
        100.0 * (in_order.cpi - sim.cpi) / sim.cpi
    );

    // The §6.1 comparison: the out-of-order interval model hides the
    // dependency and multiply stalls that dominate this kernel in order.
    println!("out-of-order interval model CPI: {:.3}", ooo.cpi);
    let stack_of = |r: &EvalResult| r.stack.clone().expect("analytical rows carry stacks");
    let (s_in, s_ooo) = (stack_of(in_order), stack_of(ooo));
    let n = in_order.instructions as f64;
    println!(
        "\ncomponent        in-order   out-of-order   (CPI)\n\
         dependencies     {:>8.3}   {:>12.3}\n\
         mul/div          {:>8.3}   {:>12.3}\n\
         branch miss      {:>8.3}   {:>12.3}",
        s_in.dependencies() / n,
        s_ooo.dependencies() / n,
        s_in.mul_div() / n,
        s_ooo.mul_div() / n,
        s_in.cpi_of(StackComponent::BranchMiss),
        s_ooo.cpi_of(StackComponent::BranchMiss),
    );
    Ok(())
}

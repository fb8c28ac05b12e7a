//! The SmallBank transaction mix, generated from the run's seed.
//!
//! Frequencies follow the standard SmallBank mix: amalgamate 15%, balance
//! 15%, deposit-checking 15%, send-payment (`transfer`) 25%,
//! transact-savings 15%, write-check 15%. Amounts are chosen so that no
//! transaction aborts by design: transact-savings only deposits, and the
//! customers that pay transfers and write checks (the lower half) are
//! disjoint from the ones amalgamate empties (the upper half), so no debit
//! meets an empty account and amalgamate never moves a negative sum.
//! Every abort the benchmark counts is therefore the engine's.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use reactdb_common::Value;
use reactdb_workloads::smallbank::customer_name;

pub struct Mix {
    rng: StdRng,
    customers: usize,
}

/// One root transaction: reactor, procedure, arguments.
pub type Call = (String, &'static str, Vec<Value>);

impl Mix {
    pub fn new(seed: u64, customers: usize) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed),
            customers,
        }
    }

    /// A customer other than `not`.
    fn other(&mut self, not: usize) -> usize {
        let c = self.rng.gen_range(0..self.customers - 1);
        if c >= not {
            c + 1
        } else {
            c
        }
    }

    pub fn next_call(&mut self) -> Call {
        let n = self.customers;
        let amount = |rng: &mut StdRng, hi: i64| Value::Float(rng.gen_range(1..=hi) as f64);
        match self.rng.gen_range(0..100u32) {
            0..=14 => {
                let src = self.rng.gen_range(n / 2..n);
                let dst = self.other(src);
                (
                    customer_name(src),
                    "amalgamate",
                    vec![Value::Str(customer_name(dst))],
                )
            }
            15..=29 => (customer_name(self.rng.gen_range(0..n)), "balance", vec![]),
            30..=44 => (
                customer_name(self.rng.gen_range(0..n)),
                "deposit_checking",
                vec![amount(&mut self.rng, 100)],
            ),
            45..=69 => {
                let src = self.rng.gen_range(0..n / 2);
                let dst = self.other(src);
                let src = customer_name(src);
                (
                    src.clone(),
                    "transfer",
                    vec![
                        Value::Str(src),
                        Value::Str(customer_name(dst)),
                        amount(&mut self.rng, 10),
                        Value::Bool(false),
                    ],
                )
            }
            70..=84 => (
                customer_name(self.rng.gen_range(0..n)),
                "transact_saving",
                vec![amount(&mut self.rng, 100)],
            ),
            _ => (
                customer_name(self.rng.gen_range(0..n / 2)),
                "write_check",
                vec![amount(&mut self.rng, 50)],
            ),
        }
    }
}

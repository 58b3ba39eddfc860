//! TPC-C (simplified but structurally faithful).
//!
//! Nine tables and the five transaction types of the benchmark: New-Order,
//! Payment, Order-Status, Delivery and Stock-Level, with the standard mix
//! (45/43/4/4/4). Transactions are routed to partitions by their home
//! warehouse (the classic H-Store TPC-C partitioning; the paper quotes the
//! combined warehouse×district key, but stock is shared by all districts of a
//! warehouse, so warehouse-level partitioning is what keeps every
//! single-warehouse transaction truly single-partition — the deviation is
//! recorded in `docs/paper-map.md`). Payment and Order-Status address the
//! customer by last name 60 % of the time; following the Appendix E split, the
//! last-name lookup is the first step of the procedure through a non-unique
//! index. Payments to a remote warehouse's customer (15 %) and new orders with
//! a remote item (about 1 %) are cross-partition transactions, which is what
//! exercises PART's TPL fallback and the strategy-selection rule.
//!
//! Like TM1, every procedure declares an access-plan callback and uses the
//! typed field accessors. New-Order and Stock-Level are fully plannable
//! (every index key derives from the parameters); Payment and Order-Status
//! plan the customer and district probes; Order-Status and Delivery stop
//! planning before the most-recent-order lookup because its key derives from
//! `d_next_o_id` *read at execution time* — earlier New-Orders of the same
//! bulk may bump it, so that probe must stay live.
//!
//! Scaling: 10 districts per warehouse as in the specification; customers per
//! district, items and stock are scaled down (constants below) to keep
//! simulated runs small. The access *pattern* per transaction (rows touched,
//! read/write mix) follows the benchmark.

use crate::workload::WorkloadBundle;
use gputx_storage::catalog::TableId;
use gputx_storage::index::IndexKey;
use gputx_storage::schema::{ColumnDef, TableSchema};
use gputx_storage::{DataItemId, DataType, Database, Value};
use gputx_txn::{BasicOp, OpKind, ProcedureDef, ProcedureRegistry, TxnTypeId};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Districts per warehouse (as specified).
pub const DISTRICTS_PER_WAREHOUSE: u64 = 10;
/// Customers per district (scaled down from 3,000).
pub const CUSTOMERS_PER_DISTRICT: u64 = 300;
/// Items in the catalogue (scaled down from 100,000).
pub const NUM_ITEMS: u64 = 1_000;

/// Transaction type ids, in registration order.
pub mod types {
    /// New-Order (45 %).
    pub const NEW_ORDER: u32 = 0;
    /// Payment (43 %).
    pub const PAYMENT: u32 = 1;
    /// Order-Status (4 %, read-only).
    pub const ORDER_STATUS: u32 = 2;
    /// Delivery (4 %).
    pub const DELIVERY: u32 = 3;
    /// Stock-Level (4 %, read-only).
    pub const STOCK_LEVEL: u32 = 4;
}

/// The 16 syllables used to build TPC-C customer last names.
const LAST_NAME_SYLLABLES: [&str; 10] = [
    "BAR", "OUGHT", "ABLE", "PRI", "PRES", "ESE", "ANTI", "CALLY", "ATION", "EING",
];

/// Build a TPC-C last name from a number in 0..=999.
pub fn last_name(num: u64) -> String {
    format!(
        "{}{}{}",
        LAST_NAME_SYLLABLES[(num / 100 % 10) as usize],
        LAST_NAME_SYLLABLES[(num / 10 % 10) as usize],
        LAST_NAME_SYLLABLES[(num % 10) as usize]
    )
}

/// Configuration of the TPC-C workload.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TpccConfig {
    /// Number of warehouses (the scale factor).
    pub warehouses: u64,
    /// Fraction of Payment transactions whose customer belongs to a remote
    /// warehouse (cross-partition); 0.15 in the specification.
    pub remote_payment_fraction: f64,
    /// Fraction of New-Order transactions that include an item from a remote
    /// warehouse (cross-partition); about 0.01 in the specification.
    pub remote_new_order_fraction: f64,
}

impl Default for TpccConfig {
    fn default() -> Self {
        TpccConfig {
            warehouses: 4,
            remote_payment_fraction: 0.15,
            remote_new_order_fraction: 0.01,
        }
    }
}

impl TpccConfig {
    /// Builder-style: set the number of warehouses.
    pub fn with_warehouses(mut self, w: u64) -> Self {
        assert!(w >= 1, "at least one warehouse is required");
        self.warehouses = w;
        self
    }

    /// Builder-style: make every transaction single-partition (used to study
    /// PART without its TPL fallback).
    pub fn single_partition_only(mut self) -> Self {
        self.remote_payment_fraction = 0.0;
        self.remote_new_order_fraction = 0.0;
        self
    }

    /// Number of partitions PART routes to: one per warehouse, matching the
    /// partition keys the registered read/write sets declare (the paper
    /// quotes `f × 10` warehouse×district partitions, but stock is shared by
    /// all districts of a warehouse, so this reproduction partitions by
    /// warehouse — see the module documentation). Always consistent with
    /// the bundle's `partition_key_cardinality`, including under
    /// [`TpccConfig::single_partition_only`] at any warehouse count.
    pub fn partitions(&self) -> u64 {
        self.warehouses
    }

    /// Build the populated database, the five procedures and the generator.
    pub fn build(&self) -> WorkloadBundle {
        let warehouses = self.warehouses;
        let mut db = Database::column_store();

        let wh_t = db.create_table(TableSchema::new(
            "warehouse",
            vec![
                ColumnDef::new("w_id", DataType::Int),
                ColumnDef::new("w_ytd", DataType::Double),
            ],
            vec![0],
        ));
        let dist_t = db.create_table(TableSchema::new(
            "district",
            vec![
                ColumnDef::new("d_w_id", DataType::Int),
                ColumnDef::new("d_id", DataType::Int),
                ColumnDef::new("d_ytd", DataType::Double),
                ColumnDef::new("d_next_o_id", DataType::Int),
            ],
            vec![0, 1],
        ));
        let cust_t = db.create_table(TableSchema::new(
            "customer",
            vec![
                ColumnDef::new("c_w_id", DataType::Int),
                ColumnDef::new("c_d_id", DataType::Int),
                ColumnDef::new("c_id", DataType::Int),
                ColumnDef::host_only("c_last", DataType::Str),
                ColumnDef::new("c_balance", DataType::Double),
                ColumnDef::new("c_ytd_payment", DataType::Double),
                ColumnDef::new("c_payment_cnt", DataType::Int),
            ],
            vec![0, 1, 2],
        ));
        let hist_t = db.create_table(TableSchema::new(
            "history",
            vec![
                ColumnDef::new("h_c_w_id", DataType::Int),
                ColumnDef::new("h_c_d_id", DataType::Int),
                ColumnDef::new("h_c_id", DataType::Int),
                ColumnDef::new("h_amount", DataType::Double),
            ],
            vec![],
        ));
        let item_t = db.create_table(TableSchema::new(
            "item",
            vec![
                ColumnDef::new("i_id", DataType::Int),
                ColumnDef::new("i_price", DataType::Double),
                ColumnDef::host_only("i_name", DataType::Str),
            ],
            vec![0],
        ));
        let stock_t = db.create_table(TableSchema::new(
            "stock",
            vec![
                ColumnDef::new("s_w_id", DataType::Int),
                ColumnDef::new("s_i_id", DataType::Int),
                ColumnDef::new("s_quantity", DataType::Int),
                ColumnDef::new("s_ytd", DataType::Int),
            ],
            vec![0, 1],
        ));
        let orders_t = db.create_table(TableSchema::new(
            "orders",
            vec![
                ColumnDef::new("o_w_id", DataType::Int),
                ColumnDef::new("o_d_id", DataType::Int),
                ColumnDef::new("o_id", DataType::Int),
                ColumnDef::new("o_c_id", DataType::Int),
                ColumnDef::new("o_ol_cnt", DataType::Int),
                ColumnDef::new("o_carrier_id", DataType::Int),
            ],
            vec![0, 1, 2],
        ));
        let ol_t = db.create_table(TableSchema::new(
            "order_line",
            vec![
                ColumnDef::new("ol_w_id", DataType::Int),
                ColumnDef::new("ol_d_id", DataType::Int),
                ColumnDef::new("ol_o_id", DataType::Int),
                ColumnDef::new("ol_number", DataType::Int),
                ColumnDef::new("ol_i_id", DataType::Int),
                ColumnDef::new("ol_quantity", DataType::Int),
                ColumnDef::new("ol_amount", DataType::Double),
            ],
            vec![],
        ));

        let dist_pk = db.create_index(dist_t, "pk", vec![0, 1], true);
        let cust_pk = db.create_index(cust_t, "pk", vec![0, 1, 2], true);
        let cust_by_last = db.create_index(cust_t, "by_last", vec![0, 1, 3], false);
        let item_pk = db.create_index(item_t, "pk", vec![0], true);
        let stock_pk = db.create_index(stock_t, "pk", vec![0, 1], true);
        let orders_pk = db.create_index(orders_t, "pk", vec![0, 1, 2], true);

        for w in 0..warehouses {
            db.insert_indexed(wh_t, vec![Value::Int(w as i64), Value::Double(0.0)]);
            for d in 0..DISTRICTS_PER_WAREHOUSE {
                db.insert_indexed(
                    dist_t,
                    vec![
                        Value::Int(w as i64),
                        Value::Int(d as i64),
                        Value::Double(0.0),
                        Value::Int(1),
                    ],
                );
                for c in 0..CUSTOMERS_PER_DISTRICT {
                    db.insert_indexed(
                        cust_t,
                        vec![
                            Value::Int(w as i64),
                            Value::Int(d as i64),
                            Value::Int(c as i64),
                            Value::Str(last_name(c % 1000)),
                            Value::Double(-10.0),
                            Value::Double(10.0),
                            Value::Int(1),
                        ],
                    );
                }
            }
            for i in 0..NUM_ITEMS {
                if w == 0 {
                    db.insert_indexed(
                        item_t,
                        vec![
                            Value::Int(i as i64),
                            Value::Double(1.0 + (i % 100) as f64),
                            Value::Str(format!("item-{i}")),
                        ],
                    );
                }
                db.insert_indexed(
                    stock_t,
                    vec![
                        Value::Int(w as i64),
                        Value::Int(i as i64),
                        Value::Int(50 + (i % 50) as i64),
                        Value::Int(0),
                    ],
                );
            }
        }

        let mut registry = ProcedureRegistry::new();
        // 0: NEW_ORDER(w, d, c, all_local, n_items, [i_id, qty, supply_w] * n)
        registry.register(
            ProcedureDef::new(
                "NEW_ORDER",
                move |p, _| new_order_rwset(dist_t, stock_t, p),
                |p| {
                    if p[3].as_int() == 1 {
                        Some(p[0].as_int() as u64)
                    } else {
                        None
                    }
                },
                move |ctx| {
                    let w = ctx.param_int(0);
                    let d = ctx.param_int(1);
                    let c = ctx.param_int(2);
                    let n_items = ctx.param_int(4) as usize;
                    let d_row = ctx
                        .lookup_unique_by(dist_pk, || IndexKey::pair(w, d))
                        .expect("district exists");
                    let o_id = ctx.read_i64(dist_t, d_row, 3);
                    ctx.write_i64(dist_t, d_row, 3, o_id + 1);
                    let mut total = 0.0;
                    for k in 0..n_items {
                        let i_id = ctx.param_int(5 + 3 * k);
                        let qty = ctx.param_int(5 + 3 * k + 1);
                        let supply_w = ctx.param_int(5 + 3 * k + 2);
                        let i_row = ctx
                            .lookup_unique_by(item_pk, || IndexKey::single(i_id))
                            .expect("item exists");
                        let price = ctx.read_f64(item_t, i_row, 1);
                        let s_row = ctx
                            .lookup_unique_by(stock_pk, || IndexKey::pair(supply_w, i_id))
                            .expect("stock exists");
                        let s_qty = ctx.read_i64(stock_t, s_row, 2);
                        let new_qty = if s_qty >= qty + 10 {
                            s_qty - qty
                        } else {
                            s_qty - qty + 91
                        };
                        ctx.write_i64(stock_t, s_row, 2, new_qty.max(0));
                        let amount = price * qty as f64;
                        total += amount;
                        ctx.insert(
                            ol_t,
                            vec![
                                Value::Int(w),
                                Value::Int(d),
                                Value::Int(o_id),
                                Value::Int(k as i64),
                                Value::Int(i_id),
                                Value::Int(qty),
                                Value::Double(amount),
                            ],
                        );
                    }
                    ctx.insert(
                        orders_t,
                        vec![
                            Value::Int(w),
                            Value::Int(d),
                            Value::Int(o_id),
                            Value::Int(c),
                            Value::Int(n_items as i64),
                            Value::Int(-1),
                        ],
                    );
                    ctx.compute_cycles(50 + (total as u64 % 16));
                },
            )
            .with_plan_access(move |p, probe| {
                // Every key derives from the parameters: fully plannable.
                probe.unique(dist_pk, &IndexKey::pair(p[0].as_int(), p[1].as_int()));
                let n = p[4].as_int() as usize;
                for k in 0..n {
                    let i_id = p[5 + 3 * k].as_int();
                    let supply_w = p[5 + 3 * k + 2].as_int();
                    probe.unique(item_pk, &IndexKey::single(i_id));
                    probe.unique(stock_pk, &IndexKey::pair(supply_w, i_id));
                }
            }),
        );

        // 1: PAYMENT(w, d, c_w, c_d, by_last, c_id, c_last, amount)
        registry.register(
            ProcedureDef::new(
                "PAYMENT",
                move |p, _| payment_rwset(wh_t, dist_t, p),
                |p| {
                    if p[0].as_int() == p[2].as_int() {
                        Some(p[0].as_int() as u64)
                    } else {
                        None
                    }
                },
                move |ctx| {
                    let w = ctx.param_int(0);
                    let d = ctx.param_int(1);
                    let cw = ctx.param_int(2);
                    let cd = ctx.param_int(3);
                    let by_last = ctx.param_int(4) == 1;
                    let amount = ctx.param_double(7);
                    // Find the customer (60 % by last name per the specification).
                    // With a plan the last-name string is never touched here.
                    let c_row = if by_last {
                        let p = ctx.params();
                        let rows =
                            ctx.lookup_by(cust_by_last, || IndexKey::triple(cw, cd, p[6].as_str()));
                        if rows.is_empty() {
                            ctx.abort("no customer with that last name");
                            return;
                        }
                        rows[rows.len() / 2]
                    } else {
                        let c_id = ctx.param_int(5);
                        match ctx.lookup_unique_by(cust_pk, || IndexKey::triple(cw, cd, c_id)) {
                            Some(r) => r,
                            None => {
                                ctx.abort("customer not found");
                                return;
                            }
                        }
                    };
                    // Warehouse rows were inserted in id order, so row id == w_id.
                    let w_row = w as u64;
                    let w_ytd = ctx.read_f64(wh_t, w_row, 1);
                    ctx.write_f64(wh_t, w_row, 1, w_ytd + amount);
                    let d_row = ctx
                        .lookup_unique_by(dist_pk, || IndexKey::pair(w, d))
                        .expect("district exists");
                    let d_ytd = ctx.read_f64(dist_t, d_row, 2);
                    ctx.write_f64(dist_t, d_row, 2, d_ytd + amount);
                    let bal = ctx.read_f64(cust_t, c_row, 4);
                    ctx.write_f64(cust_t, c_row, 4, bal - amount);
                    let ytd = ctx.read_f64(cust_t, c_row, 5);
                    ctx.write_f64(cust_t, c_row, 5, ytd + amount);
                    let cnt = ctx.read_i64(cust_t, c_row, 6);
                    ctx.write_i64(cust_t, c_row, 6, cnt + 1);
                    ctx.insert(
                        hist_t,
                        vec![
                            Value::Int(cw),
                            Value::Int(cd),
                            Value::Int(ctx.param_int(5)),
                            Value::Double(amount),
                        ],
                    );
                },
            )
            .with_plan_access(move |p, probe| {
                // The customer probe's shape follows the by_last flag; the body
                // aborts before the district probe on a customer miss, which
                // leaves the trailing entry unconsumed — that is fine.
                let (cw, cd) = (p[2].as_int(), p[3].as_int());
                if p[4].as_int() == 1 {
                    probe.multi(cust_by_last, &IndexKey::triple(cw, cd, p[6].as_str()));
                } else {
                    probe.unique(cust_pk, &IndexKey::triple(cw, cd, p[5].as_int()));
                }
                probe.unique(dist_pk, &IndexKey::pair(p[0].as_int(), p[1].as_int()));
            }),
        );

        // 2: ORDER_STATUS(w, d, by_last, c_id, c_last)
        registry.register(
            ProcedureDef::new(
                "ORDER_STATUS",
                move |p, _| {
                    vec![district_item(
                        dist_t,
                        p[0].as_int(),
                        p[1].as_int(),
                        OpKind::Read,
                    )]
                },
                |p| Some(p[0].as_int() as u64),
                move |ctx| {
                    let w = ctx.param_int(0);
                    let d = ctx.param_int(1);
                    let by_last = ctx.param_int(2) == 1;
                    let c_row = if by_last {
                        let p = ctx.params();
                        let rows =
                            ctx.lookup_by(cust_by_last, || IndexKey::triple(w, d, p[4].as_str()));
                        if rows.is_empty() {
                            ctx.abort("no customer with that last name");
                            return;
                        }
                        rows[rows.len() / 2]
                    } else {
                        let c_id = ctx.param_int(3);
                        match ctx.lookup_unique_by(cust_pk, || IndexKey::triple(w, d, c_id)) {
                            Some(r) => r,
                            None => {
                                ctx.abort("customer not found");
                                return;
                            }
                        }
                    };
                    ctx.read_f64(cust_t, c_row, 4);
                    // Read the customer's most recent order if there is one.
                    let d_row = ctx
                        .lookup_unique_by(dist_pk, || IndexKey::pair(w, d))
                        .expect("district exists");
                    let next = ctx.read_i64(dist_t, d_row, 3);
                    if next > 1 {
                        if let Some(o_row) =
                            ctx.lookup_unique_by(orders_pk, || IndexKey::triple(w, d, next - 1))
                        {
                            ctx.read_i64(orders_t, o_row, 4);
                            ctx.read_i64(orders_t, o_row, 5);
                        }
                    }
                },
            )
            .with_plan_access(move |p, probe| {
                // The most-recent-order key derives from d_next_o_id read at
                // execution time (New-Orders earlier in the bulk may bump it),
                // so the plan stops after the district probe and the orders
                // lookup stays live.
                let (w, d) = (p[0].as_int(), p[1].as_int());
                if p[2].as_int() == 1 {
                    probe.multi(cust_by_last, &IndexKey::triple(w, d, p[4].as_str()));
                } else {
                    probe.unique(cust_pk, &IndexKey::triple(w, d, p[3].as_int()));
                }
                probe.unique(dist_pk, &IndexKey::pair(w, d));
            }),
        );

        // 3: DELIVERY(w, d, carrier)
        registry.register(
            ProcedureDef::new(
                "DELIVERY",
                move |p, _| {
                    vec![district_item(
                        dist_t,
                        p[0].as_int(),
                        p[1].as_int(),
                        OpKind::Write,
                    )]
                },
                |p| Some(p[0].as_int() as u64),
                move |ctx| {
                    let w = ctx.param_int(0);
                    let d = ctx.param_int(1);
                    let carrier = ctx.param_int(2);
                    let d_row = ctx
                        .lookup_unique_by(dist_pk, || IndexKey::pair(w, d))
                        .expect("district exists");
                    let next = ctx.read_i64(dist_t, d_row, 3);
                    if next <= 1 {
                        ctx.abort("no orders to deliver");
                        return;
                    }
                    // Deliver the most recent undelivered order (simplified: the
                    // newest order of the district).
                    match ctx.lookup_unique_by(orders_pk, || IndexKey::triple(w, d, next - 1)) {
                        Some(o_row) => {
                            let cur = ctx.read_i64(orders_t, o_row, 5);
                            if cur >= 0 {
                                ctx.abort("already delivered");
                                return;
                            }
                            ctx.write_i64(orders_t, o_row, 5, carrier);
                            let c_id = ctx.read_i64(orders_t, o_row, 3);
                            if let Some(c_row) =
                                ctx.lookup_unique_by(cust_pk, || IndexKey::triple(w, d, c_id))
                            {
                                let bal = ctx.read_f64(cust_t, c_row, 4);
                                ctx.write_f64(cust_t, c_row, 4, bal + 1.0);
                            }
                        }
                        None => ctx.abort("order not found"),
                    }
                },
            )
            .with_plan_access(move |p, probe| {
                // Only the district key derives from the parameters; the order
                // and customer keys derive from fields read during execution and
                // stay live probes.
                probe.unique(dist_pk, &IndexKey::pair(p[0].as_int(), p[1].as_int()));
            }),
        );

        // 4: STOCK_LEVEL(w, d, threshold)
        registry.register(
            ProcedureDef::new(
                "STOCK_LEVEL",
                move |p, _| {
                    vec![district_item(
                        dist_t,
                        p[0].as_int(),
                        p[1].as_int(),
                        OpKind::Read,
                    )]
                },
                |p| Some(p[0].as_int() as u64),
                move |ctx| {
                    let w = ctx.param_int(0);
                    let d = ctx.param_int(1);
                    let threshold = ctx.param_int(2);
                    let d_row = ctx
                        .lookup_unique_by(dist_pk, || IndexKey::pair(w, d))
                        .expect("district exists");
                    ctx.read_i64(dist_t, d_row, 3);
                    // Examine a window of stock rows for the home warehouse.
                    let mut low = 0;
                    for i in 0..20i64 {
                        let i_id = (d * 20 + i) % NUM_ITEMS as i64;
                        if let Some(s_row) =
                            ctx.lookup_unique_by(stock_pk, || IndexKey::pair(w, i_id))
                        {
                            if ctx.read_i64(stock_t, s_row, 2) < threshold {
                                low += 1;
                            }
                        }
                    }
                    ctx.compute_cycles(20 + low);
                },
            )
            .with_plan_access(move |p, probe| {
                // The stock window is a pure function of (w, d): fully plannable.
                let (w, d) = (p[0].as_int(), p[1].as_int());
                probe.unique(dist_pk, &IndexKey::pair(w, d));
                for i in 0..20i64 {
                    let i_id = (d * 20 + i) % NUM_ITEMS as i64;
                    probe.unique(stock_pk, &IndexKey::pair(w, i_id));
                }
            }),
        );

        // Generator with the standard mix.
        let remote_payment = self.remote_payment_fraction;
        let remote_new_order = self.remote_new_order_fraction;
        let generator = Box::new(move |rng: &mut rand::rngs::StdRng| {
            let w = rng.random_range(0..warehouses) as i64;
            let d = rng.random_range(0..DISTRICTS_PER_WAREHOUSE) as i64;
            let c = rng.random_range(0..CUSTOMERS_PER_DISTRICT) as i64;
            let roll = rng.random_range(0..100u32);
            if roll < 45 {
                // New-Order with 5-15 items.
                let n_items = rng.random_range(5..=15usize);
                let remote = warehouses > 1 && rng.random_bool(remote_new_order);
                let mut params = vec![
                    Value::Int(w),
                    Value::Int(d),
                    Value::Int(c),
                    Value::Int(i64::from(!remote)),
                    Value::Int(n_items as i64),
                ];
                for k in 0..n_items {
                    let i_id = rng.random_range(0..NUM_ITEMS) as i64;
                    let qty = rng.random_range(1..=10i64);
                    let supply_w = if remote && k == 0 {
                        (w + 1) % warehouses as i64
                    } else {
                        w
                    };
                    params.extend([Value::Int(i_id), Value::Int(qty), Value::Int(supply_w)]);
                }
                (types::NEW_ORDER as TxnTypeId, params)
            } else if roll < 88 {
                let remote = warehouses > 1 && rng.random_bool(remote_payment);
                let (cw, cd) = if remote {
                    (
                        (w + 1) % warehouses as i64,
                        rng.random_range(0..DISTRICTS_PER_WAREHOUSE) as i64,
                    )
                } else {
                    (w, d)
                };
                let by_last = rng.random_bool(0.6);
                (
                    types::PAYMENT as TxnTypeId,
                    vec![
                        Value::Int(w),
                        Value::Int(d),
                        Value::Int(cw),
                        Value::Int(cd),
                        Value::Int(i64::from(by_last)),
                        Value::Int(c),
                        Value::Str(last_name(c as u64 % 1000)),
                        Value::Double(rng.random_range(1..=5000) as f64 / 100.0),
                    ],
                )
            } else if roll < 92 {
                let by_last = rng.random_bool(0.6);
                (
                    types::ORDER_STATUS as TxnTypeId,
                    vec![
                        Value::Int(w),
                        Value::Int(d),
                        Value::Int(i64::from(by_last)),
                        Value::Int(c),
                        Value::Str(last_name(c as u64 % 1000)),
                    ],
                )
            } else if roll < 96 {
                (
                    types::DELIVERY as TxnTypeId,
                    vec![
                        Value::Int(w),
                        Value::Int(d),
                        Value::Int(rng.random_range(1..=10i64)),
                    ],
                )
            } else {
                (
                    types::STOCK_LEVEL as TxnTypeId,
                    vec![
                        Value::Int(w),
                        Value::Int(d),
                        Value::Int(rng.random_range(10..=20i64)),
                    ],
                )
            }
        });

        WorkloadBundle::new("tpcc", db, registry, warehouses, generator)
    }
}

/// District access for the declared read/write-set closures: the district
/// table was filled in (w, d) order, so its row id is
/// `w * DISTRICTS_PER_WAREHOUSE + d`.
fn district_item(dist_t: TableId, w: i64, d: i64, kind: OpKind) -> BasicOp {
    let row = (w as u64) * DISTRICTS_PER_WAREHOUSE + d as u64;
    BasicOp {
        item: DataItemId::whole_row(dist_t, row),
        kind,
    }
}

/// NEW_ORDER's declared write set: the home district plus every touched
/// stock row. Stock rows are shared by every district of the supplying
/// warehouse, so they must appear in the conflict set; they were inserted
/// warehouse-major, so the row id is `supply_w * NUM_ITEMS + i_id`.
fn new_order_rwset(dist_t: TableId, stock_t: TableId, p: &[Value]) -> Vec<BasicOp> {
    let (w, d) = (p[0].as_int(), p[1].as_int());
    let mut ops = vec![district_item(dist_t, w, d, OpKind::Write)];
    let n = p[4].as_int() as usize;
    for k in 0..n {
        let i_id = p[5 + 3 * k].as_int() as u64;
        let supply_w = p[5 + 3 * k + 2].as_int() as u64;
        ops.push(BasicOp::write(DataItemId::new(
            stock_t,
            supply_w * NUM_ITEMS + i_id,
            2,
        )));
    }
    ops
}

/// PAYMENT's declared write set: home district + home warehouse YTD (shared
/// by every district of the warehouse), plus the customer's district when
/// the customer is remote.
fn payment_rwset(wh_t: TableId, dist_t: TableId, p: &[Value]) -> Vec<BasicOp> {
    let (w, d) = (p[0].as_int(), p[1].as_int());
    let (cw, cd) = (p[2].as_int(), p[3].as_int());
    let mut ops = vec![
        district_item(dist_t, w, d, OpKind::Write),
        BasicOp::write(DataItemId::new(wh_t, w as u64, 1)),
    ];
    if cw != w {
        ops.push(district_item(dist_t, cw, cd, OpKind::Write));
    }
    ops
}

#[cfg(test)]
mod tests {
    use super::*;
    use gputx_core::{execute_bulk, Bulk, EngineConfig, ExecContext, StrategyKind};
    use gputx_sim::Gpu;
    use gputx_txn::{TxnOutcome, TxnSignature};

    #[test]
    fn last_name_follows_syllable_rule() {
        assert_eq!(last_name(0), "BARBARBAR");
        assert_eq!(last_name(371), "PRICALLYOUGHT");
        assert_eq!(last_name(999), "EINGEINGEING");
    }

    #[test]
    fn population_matches_configuration() {
        let cfg = TpccConfig::default().with_warehouses(2);
        let w = cfg.build();
        assert_eq!(w.db.table_by_name("warehouse").num_rows(), 2);
        assert_eq!(
            w.db.table_by_name("district").num_rows() as u64,
            2 * DISTRICTS_PER_WAREHOUSE
        );
        assert_eq!(
            w.db.table_by_name("customer").num_rows() as u64,
            2 * DISTRICTS_PER_WAREHOUSE * CUSTOMERS_PER_DISTRICT
        );
        assert_eq!(w.db.table_by_name("item").num_rows() as u64, NUM_ITEMS);
        assert_eq!(w.db.table_by_name("stock").num_rows() as u64, 2 * NUM_ITEMS);
        assert_eq!(w.registry.num_types(), 5);
        assert_eq!(w.partition_key_cardinality, 2);
    }

    /// Regression: `partitions()` must follow the configured warehouse count
    /// (the declared partition keys are warehouse ids), including under
    /// `single_partition_only()` with more than one warehouse. It used to
    /// report `warehouses × 10` while every declared key stayed below
    /// `warehouses`.
    #[test]
    fn partitions_follow_the_warehouse_count() {
        for warehouses in [1u64, 2, 4, 7] {
            let cfg = TpccConfig::default()
                .with_warehouses(warehouses)
                .single_partition_only();
            assert_eq!(cfg.partitions(), warehouses);
            let mut w = cfg.build();
            assert_eq!(
                w.partition_key_cardinality,
                cfg.partitions(),
                "bundle cardinality must agree with the config"
            );
            for sig in w.generate_signatures(500, 0) {
                let key = w
                    .registry
                    .partition_key(&sig)
                    .expect("single-partition configuration");
                assert!(
                    key < cfg.partitions(),
                    "partition key {key} out of range for {} partitions",
                    cfg.partitions()
                );
            }
        }
        // The default (cross-partition) configuration: every *declared* key
        // still falls inside the advertised partition count.
        let cfg = TpccConfig::default().with_warehouses(3);
        let mut w = cfg.build();
        for sig in w.generate_signatures(2000, 0) {
            if let Some(key) = w.registry.partition_key(&sig) {
                assert!(key < cfg.partitions());
            }
        }
    }

    /// The generator follows the standard 45/43/4/4/4 mix within tolerance,
    /// independent of the seed.
    #[test]
    fn mix_matches_the_specification_at_three_seeds() {
        for seed in [7u64, 99, 2026] {
            let mut w = TpccConfig::default().build();
            w.reseed(seed);
            let mut counts = [0usize; 5];
            for (ty, _) in w.generate(10_000) {
                counts[ty as usize] += 1;
            }
            let pct = |n: usize| n as f64 / 100.0;
            let expect = [
                (types::NEW_ORDER, 45.0, 2.0),
                (types::PAYMENT, 43.0, 2.0),
                (types::ORDER_STATUS, 4.0, 1.0),
                (types::DELIVERY, 4.0, 1.0),
                (types::STOCK_LEVEL, 4.0, 1.0),
            ];
            for (ty, want, tol) in expect {
                let got = pct(counts[ty as usize]);
                assert!(
                    (got - want).abs() <= tol,
                    "seed {seed}: type {ty} at {got:.2} % (want {want} ± {tol})"
                );
            }
        }
    }

    #[test]
    fn new_order_grows_orders_and_order_lines() {
        let mut w = TpccConfig::default()
            .with_warehouses(1)
            .single_partition_only()
            .build();
        let sigs: Vec<_> = w
            .generate_signatures(500, 0)
            .into_iter()
            .filter(|s| s.ty == types::NEW_ORDER)
            .collect();
        assert!(!sigs.is_empty());
        let mut db = w.db.clone();
        let mut gpu = Gpu::c1060();
        let config = EngineConfig::default();
        let mut ctx = ExecContext {
            gpu: &mut gpu,
            db: &mut db,
            registry: &w.registry,
            config: &config,
        };
        let out = execute_bulk(&mut ctx, StrategyKind::Kset, &Bulk::new(sigs.clone()));
        assert_eq!(out.committed, sigs.len());
        assert_eq!(db.table_by_name("orders").num_rows(), sigs.len());
        assert!(db.table_by_name("order_line").num_rows() >= 5 * sigs.len());
    }

    /// Why TPC-C's abort share grows with bulk size: a New-Order's order row
    /// waits in the insert buffer until its bulk ends, so a Delivery for the
    /// same district later in that bulk cannot find order
    /// `d_next_o_id - 1` and aborts. The same Delivery one bulk later
    /// commits.
    #[test]
    fn delivery_sees_a_new_order_only_from_the_next_bulk() {
        let w = TpccConfig::default()
            .with_warehouses(1)
            .single_partition_only()
            .build();
        let new_order = vec![
            Value::Int(0),
            Value::Int(3),
            Value::Int(7),
            Value::Int(1),
            Value::Int(1),
            Value::Int(42),
            Value::Int(5),
            Value::Int(0),
        ];
        let delivery = vec![Value::Int(0), Value::Int(3), Value::Int(9)];
        let sig = |id, ty, params: &Vec<Value>| TxnSignature::new(id, ty, params.clone());
        let mut db = w.db.clone();
        let mut gpu = Gpu::c1060();
        let config = EngineConfig::default();
        let mut ctx = ExecContext {
            gpu: &mut gpu,
            db: &mut db,
            registry: &w.registry,
            config: &config,
        };
        let same_bulk = Bulk::new(vec![
            sig(0, types::NEW_ORDER, &new_order),
            sig(1, types::DELIVERY, &delivery),
        ]);
        let out = execute_bulk(&mut ctx, StrategyKind::Tpl, &same_bulk);
        assert_eq!(
            out.outcomes,
            vec![
                (0, TxnOutcome::Committed),
                (1, TxnOutcome::Aborted("order not found".into())),
            ]
        );
        let next_bulk = Bulk::new(vec![sig(2, types::DELIVERY, &delivery)]);
        let out = execute_bulk(&mut ctx, StrategyKind::Tpl, &next_bulk);
        assert_eq!(out.outcomes, vec![(2, TxnOutcome::Committed)]);
        assert_eq!(db.table_by_name("orders").get(0, 5), Value::Int(9));
    }

    #[test]
    fn cross_partition_fraction_matches_configuration() {
        let mut w = TpccConfig::default().with_warehouses(4).build();
        let sigs = w.generate_signatures(5000, 0);
        let cross = sigs
            .iter()
            .filter(|s| w.registry.partition_key(s).is_none())
            .count();
        // Expect roughly 43% * 15% + 45% * 1% ≈ 7% cross-partition.
        assert!((150..600).contains(&cross), "cross-partition count {cross}");
        let single = TpccConfig::default()
            .with_warehouses(4)
            .single_partition_only()
            .build();
        let mut single = single;
        let sigs2 = single.generate_signatures(2000, 0);
        assert!(sigs2
            .iter()
            .all(|s| single.registry.partition_key(s).is_some()));
    }

    #[test]
    fn strategies_agree_on_final_state() {
        let mut w = TpccConfig::default().with_warehouses(2).build();
        let sigs = w.generate_signatures(800, 0);
        let config = EngineConfig::default();
        let mut states = Vec::new();
        for strategy in [StrategyKind::Tpl, StrategyKind::Part, StrategyKind::Kset] {
            let mut db = w.db.clone();
            let mut gpu = Gpu::c1060();
            let mut ctx = ExecContext {
                gpu: &mut gpu,
                db: &mut db,
                registry: &w.registry,
                config: &config,
            };
            execute_bulk(&mut ctx, strategy, &Bulk::new(sigs.clone()));
            states.push(db);
        }
        assert!(states[0] == states[1], "TPL and PART disagree");
        assert!(states[1] == states[2], "PART and K-SET disagree");
    }

    #[test]
    fn payment_keeps_ytd_consistent() {
        let mut w = TpccConfig::default()
            .with_warehouses(1)
            .single_partition_only()
            .build();
        let sigs: Vec<_> = w
            .generate_signatures(1000, 0)
            .into_iter()
            .filter(|s| s.ty == types::PAYMENT)
            .collect();
        let mut db = w.db.clone();
        let mut gpu = Gpu::c1060();
        let config = EngineConfig::default();
        let mut ctx = ExecContext {
            gpu: &mut gpu,
            db: &mut db,
            registry: &w.registry,
            config: &config,
        };
        let out = execute_bulk(&mut ctx, StrategyKind::Part, &Bulk::new(sigs));
        assert!(out.committed > 0);
        // Warehouse YTD equals the sum of district YTDs equals history amounts.
        let wh = db.table_by_name("warehouse");
        let w_ytd: f64 = (0..wh.num_rows() as u64)
            .map(|r| wh.get(r, 1).as_double())
            .sum();
        let dist = db.table_by_name("district");
        let d_ytd: f64 = (0..dist.num_rows() as u64)
            .map(|r| dist.get(r, 2).as_double())
            .sum();
        let hist = db.table_by_name("history");
        let h_sum: f64 = (0..hist.num_rows() as u64)
            .map(|r| hist.get(r, 3).as_double())
            .sum();
        assert!((w_ytd - d_ytd).abs() < 1e-6);
        assert!((d_ytd - h_sum).abs() < 1e-6);
    }
}

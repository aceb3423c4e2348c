//! JSON projections of the trace layer's report types, built on the
//! derive-free [`ToJson`]/[`FromJson`] traits from `lockdoc_platform`.
//!
//! These are the pieces every `--json` output and `lockdoc doctor` emit:
//! ids, access and context kinds, source locations, and the quarantine,
//! salvage and import reports. Traces themselves have one encoding, the
//! binary `LDOC1` container ([`crate::codec`]). Field order is fixed, so
//! serializing the same value twice yields byte-identical text.

use crate::codec::{SalvageDiag, SalvageReport};
use crate::db::resilient::{ImportReport, QuarantineClass, QuarantineEntry};
use crate::event::{AccessKind, ContextKind, SourceLoc};
use crate::ids::{AllocId, DataTypeId, FnId, LockId, MemberId, StackId, Sym, TaskId, TxnId};
use lockdoc_platform::json::{decode_field, FromJson, Json, JsonError, ToJson};

macro_rules! json_id {
    ($($ty:ident),+ $(,)?) => {$(
        impl ToJson for $ty {
            fn to_json(&self) -> Json {
                self.0.to_json()
            }
        }
        impl FromJson for $ty {
            fn from_json(v: &Json) -> Result<Self, JsonError> {
                FromJson::from_json(v).map($ty)
            }
        }
    )+};
}

json_id!(Sym, DataTypeId, MemberId, AllocId, TaskId, FnId, StackId, LockId, TxnId);

macro_rules! json_struct {
    ($ty:ty { $($field:ident),+ $(,)? }) => {
        impl ToJson for $ty {
            fn to_json(&self) -> Json {
                Json::obj(vec![$((stringify!($field), self.$field.to_json())),+])
            }
        }
        impl FromJson for $ty {
            fn from_json(v: &Json) -> Result<Self, JsonError> {
                Ok(Self {
                    $($field: decode_field(v, stringify!($field))?),+
                })
            }
        }
    };
}

macro_rules! json_unit_enum {
    ($ty:ident { $($variant:ident => $name:literal),+ $(,)? }) => {
        impl ToJson for $ty {
            fn to_json(&self) -> Json {
                let s = match self {
                    $($ty::$variant => $name),+
                };
                Json::Str(s.to_owned())
            }
        }
        impl FromJson for $ty {
            fn from_json(v: &Json) -> Result<Self, JsonError> {
                match v.as_str() {
                    $(Some($name) => Ok($ty::$variant),)+
                    Some(other) => Err(JsonError::new(format!(
                        "unknown {} variant '{other}'",
                        stringify!($ty)
                    ))),
                    None => Err(JsonError::new(concat!(
                        "expected string for ",
                        stringify!($ty)
                    ))),
                }
            }
        }
    };
}

json_unit_enum!(AccessKind {
    Read => "r",
    Write => "w",
});

json_unit_enum!(ContextKind {
    Task => "task",
    Softirq => "softirq",
    Hardirq => "hardirq",
});

json_struct!(SourceLoc { file, line });

// --- Robustness reports (resilient import + salvage decode) -------------

json_unit_enum!(QuarantineClass {
    TimestampRegression => "timestamp_regression",
    DanglingMeta => "dangling_meta",
    DuplicateAllocId => "duplicate_alloc_id",
    OverlappingAlloc => "overlapping_alloc",
    DanglingFree => "dangling_free",
    DoubleFree => "double_free",
    UnbalancedRelease => "unbalanced_release",
    TaskContext => "task_context",
});

json_struct!(QuarantineEntry {
    event_index,
    class,
    detail
});
json_struct!(SalvageDiag {
    event_index,
    offset,
    error,
    resumed_at
});
json_struct!(SalvageReport {
    expected_events,
    recovered_events,
    bytes_skipped,
    trailing_bytes,
    truncated,
    failures,
    diags
});

impl ToJson for ImportReport {
    fn to_json(&self) -> Json {
        // `counts` is derived from `quarantined`, emitted for dashboards
        // and `lockdoc doctor` consumers that only want the histogram; the
        // decoder ignores it and rebuilds from the entries.
        let counts = Json::obj(
            self.counts()
                .into_iter()
                .map(|(class, n)| (class.name(), n.to_json()))
                .collect(),
        );
        Json::Obj(vec![
            ("events".to_owned(), self.events.to_json()),
            ("bad_frac".to_owned(), self.bad_frac.to_json()),
            ("quarantined".to_owned(), self.quarantined.to_json()),
            ("counts".to_owned(), counts),
        ])
    }
}

impl FromJson for ImportReport {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(ImportReport {
            events: decode_field(v, "events")?,
            bad_frac: decode_field(v, "bad_frac")?,
            quarantined: decode_field(v, "quarantined")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lockdoc_platform::json::parse;

    #[test]
    fn import_report_round_trips_and_exposes_counts() {
        let report = ImportReport {
            events: 100,
            bad_frac: 0.03,
            quarantined: vec![
                QuarantineEntry {
                    event_index: 7,
                    class: QuarantineClass::DoubleFree,
                    detail: "alloc id 1 already freed".into(),
                },
                QuarantineEntry {
                    event_index: 12,
                    class: QuarantineClass::DoubleFree,
                    detail: "alloc id 2 already freed".into(),
                },
                QuarantineEntry {
                    event_index: 20,
                    class: QuarantineClass::TimestampRegression,
                    detail: "ts 5 after high-water mark 9".into(),
                },
            ],
        };
        let text = report.to_json().compact();
        // The derived histogram is visible to JSON consumers...
        let v = parse(&text).unwrap();
        let counts = v.get("counts").expect("counts object");
        assert_eq!(counts.get("double_free").and_then(Json::as_u64), Some(2));
        assert_eq!(
            counts.get("timestamp_regression").and_then(Json::as_u64),
            Some(1)
        );
        // ...and the report itself round-trips from the real fields.
        let back: ImportReport = lockdoc_platform::json::from_str(&text).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn salvage_report_round_trips() {
        let report = SalvageReport {
            expected_events: 10,
            recovered_events: 8,
            bytes_skipped: 3,
            trailing_bytes: 0,
            truncated: true,
            failures: 2,
            diags: vec![SalvageDiag {
                event_index: 4,
                offset: 77,
                error: "unknown event tag 0xff".into(),
                resumed_at: Some(81),
            }],
        };
        let text = report.to_json().compact();
        let back: SalvageReport = lockdoc_platform::json::from_str(&text).unwrap();
        assert_eq!(back, report);
    }
}

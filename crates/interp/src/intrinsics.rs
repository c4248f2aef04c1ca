//! Intrinsic functions callable from ILOC.
//!
//! The FORTRAN routines in the benchmark suite use the standard library
//! functions below. Intrinsic calls are still `call` instructions in the
//! IR — opaque to every optimization, exactly like the paper's treatment
//! of procedure calls (rank rule 2 applies to their results).

use crate::error::ExecError;
use crate::value::Value;

/// Evaluate intrinsic `name` on `args`, or return `None` if `name` is not
/// one of [`epre_ir::INTRINSICS`] (the caller then looks for a user
/// function).
///
/// # Errors
/// Returns [`ExecError::IntrinsicType`] on argument type/arity mismatch.
pub fn eval_intrinsic(name: &str, args: &[Value]) -> Option<Result<Value, ExecError>> {
    let f1 = |f: fn(f64) -> f64| -> Result<Value, ExecError> {
        match args {
            [Value::Float(x)] => Ok(Value::Float(f(*x))),
            _ => Err(ExecError::IntrinsicType { name: name.to_string() }),
        }
    };
    let f2 = |f: fn(f64, f64) -> f64| -> Result<Value, ExecError> {
        match args {
            [Value::Float(x), Value::Float(y)] => Ok(Value::Float(f(*x, *y))),
            _ => Err(ExecError::IntrinsicType { name: name.to_string() }),
        }
    };
    Some(match name {
        "sqrt" => f1(f64::sqrt),
        "exp" => f1(f64::exp),
        "log" => f1(f64::ln),
        "log10" => f1(f64::log10),
        "sin" => f1(f64::sin),
        "cos" => f1(f64::cos),
        "tan" => f1(f64::tan),
        "atan" => f1(f64::atan),
        "atan2" => f2(f64::atan2),
        "pow" => f2(f64::powf),
        "abs" => match args {
            [Value::Float(x)] => Ok(Value::Float(x.abs())),
            [Value::Int(x)] => Ok(Value::Int(x.wrapping_abs())),
            _ => Err(ExecError::IntrinsicType { name: name.to_string() }),
        },
        "sign" => match args {
            // FORTRAN SIGN(a, b): |a| with the sign of b.
            [Value::Float(a), Value::Float(b)] => {
                Ok(Value::Float(if *b < 0.0 { -a.abs() } else { a.abs() }))
            }
            [Value::Int(a), Value::Int(b)] => {
                Ok(Value::Int(if *b < 0 { -a.wrapping_abs() } else { a.wrapping_abs() }))
            }
            _ => Err(ExecError::IntrinsicType { name: name.to_string() }),
        },
        "mod" => match args {
            [Value::Int(a), Value::Int(b)] => {
                if *b == 0 {
                    Err(ExecError::DivisionByZero)
                } else {
                    Ok(Value::Int(a.wrapping_rem(*b)))
                }
            }
            [Value::Float(a), Value::Float(b)] => Ok(Value::Float(a % b)),
            _ => Err(ExecError::IntrinsicType { name: name.to_string() }),
        },
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn float_unary() {
        let r = eval_intrinsic("sqrt", &[Value::Float(9.0)]).unwrap().unwrap();
        assert_eq!(r, Value::Float(3.0));
        assert!(eval_intrinsic("sqrt", &[Value::Int(9)]).unwrap().is_err());
    }

    #[test]
    fn abs_is_polymorphic() {
        assert_eq!(eval_intrinsic("abs", &[Value::Int(-3)]).unwrap().unwrap(), Value::Int(3));
        assert_eq!(
            eval_intrinsic("abs", &[Value::Float(-2.5)]).unwrap().unwrap(),
            Value::Float(2.5)
        );
    }

    #[test]
    fn sign_follows_fortran() {
        assert_eq!(
            eval_intrinsic("sign", &[Value::Float(3.0), Value::Float(-1.0)]).unwrap().unwrap(),
            Value::Float(-3.0)
        );
        assert_eq!(
            eval_intrinsic("sign", &[Value::Int(-3), Value::Int(5)]).unwrap().unwrap(),
            Value::Int(3)
        );
    }

    #[test]
    fn int_mod_by_zero_errors() {
        assert_eq!(
            eval_intrinsic("mod", &[Value::Int(5), Value::Int(0)]).unwrap(),
            Err(ExecError::DivisionByZero)
        );
        assert_eq!(
            eval_intrinsic("mod", &[Value::Int(7), Value::Int(3)]).unwrap().unwrap(),
            Value::Int(1)
        );
    }

    #[test]
    fn unknown_name_is_none() {
        assert!(eval_intrinsic("frobnicate", &[]).is_none());
        assert!(!epre_ir::is_intrinsic("frobnicate"));
        assert!(epre_ir::is_intrinsic("atan2"));
    }

    #[test]
    fn evaluates_exactly_the_ir_intrinsics() {
        for name in epre_ir::INTRINSICS {
            assert!(eval_intrinsic(name, &[]).is_some(), "`{name}` is not evaluated");
        }
        for name in ["", "SQRT", "sqrt ", "log2", "min", "float", "int", "drv"] {
            assert!(!epre_ir::is_intrinsic(name));
            assert!(eval_intrinsic(name, &[]).is_none(), "`{name}` is evaluated");
        }
    }
}

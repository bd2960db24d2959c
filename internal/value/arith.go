package value

import (
	"errors"
	"fmt"
	"math"
)

// ErrType reports an operand of the wrong kind for an operation.
var ErrType = errors.New("value: type error")

func typeErr(op string, a, b Value) error {
	return fmt.Errorf("%w: %s %s %s", ErrType, a.Kind(), op, b.Kind())
}

// Add returns a + b. Numerics add (int+int stays int); strings
// concatenate; datetime + int shifts by seconds; lists concatenate.
func Add(a, b Value) (Value, error) {
	switch {
	case a.kind == KindInt && b.kind == KindInt:
		return NewInt(a.i() + b.i()), nil
	case a.IsNumeric() && b.IsNumeric():
		af, _ := a.AsFloat()
		bf, _ := b.AsFloat()
		return NewFloat(af + bf), nil
	case a.kind == KindString && b.kind == KindString:
		return NewString(a.str() + b.str()), nil
	case a.kind == KindDatetime && b.kind == KindInt:
		return NewDatetime(a.i() + b.i()), nil
	case a.kind == KindInt && b.kind == KindDatetime:
		return NewDatetime(a.i() + b.i()), nil
	case a.kind == KindList && b.kind == KindList:
		out := make([]Value, 0, len(a.elems())+len(b.elems()))
		out = append(out, a.elems()...)
		out = append(out, b.elems()...)
		return NewList(out), nil
	}
	return Null, typeErr("+", a, b)
}

// Sub returns a - b for numerics, and datetime - datetime (seconds) or
// datetime - int (shift).
func Sub(a, b Value) (Value, error) {
	switch {
	case a.kind == KindInt && b.kind == KindInt:
		return NewInt(a.i() - b.i()), nil
	case a.IsNumeric() && b.IsNumeric():
		af, _ := a.AsFloat()
		bf, _ := b.AsFloat()
		return NewFloat(af - bf), nil
	case a.kind == KindDatetime && b.kind == KindDatetime:
		return NewInt(a.i() - b.i()), nil
	case a.kind == KindDatetime && b.kind == KindInt:
		return NewDatetime(a.i() - b.i()), nil
	}
	return Null, typeErr("-", a, b)
}

// Mul returns a * b for numerics.
func Mul(a, b Value) (Value, error) {
	switch {
	case a.kind == KindInt && b.kind == KindInt:
		return NewInt(a.i() * b.i()), nil
	case a.IsNumeric() && b.IsNumeric():
		af, _ := a.AsFloat()
		bf, _ := b.AsFloat()
		return NewFloat(af * bf), nil
	}
	return Null, typeErr("*", a, b)
}

// Div returns a / b. Division always yields a float, mirroring GSQL's
// arithmetic on mixed expressions; integer division is the IntDiv
// helper. Division by zero yields an error for ints and ±Inf for
// floats (IEEE semantics).
func Div(a, b Value) (Value, error) {
	if !a.IsNumeric() || !b.IsNumeric() {
		return Null, typeErr("/", a, b)
	}
	af, _ := a.AsFloat()
	bf, _ := b.AsFloat()
	if bf == 0 && a.kind == KindInt && b.kind == KindInt {
		return Null, errors.New("value: integer division by zero")
	}
	return NewFloat(af / bf), nil
}

// IntDiv returns a / b truncated toward zero for integer operands.
func IntDiv(a, b Value) (Value, error) {
	ai, aok := a.AsInt()
	bi, bok := b.AsInt()
	if !aok || !bok {
		return Null, typeErr("div", a, b)
	}
	if bi == 0 {
		return Null, errors.New("value: integer division by zero")
	}
	return NewInt(ai / bi), nil
}

// Mod returns a % b for integer operands.
func Mod(a, b Value) (Value, error) {
	if a.kind != KindInt || b.kind != KindInt {
		return Null, typeErr("%", a, b)
	}
	if b.i() == 0 {
		return Null, errors.New("value: modulo by zero")
	}
	return NewInt(a.i() % b.i()), nil
}

// Neg returns -a for numerics.
func Neg(a Value) (Value, error) {
	switch a.kind {
	case KindInt:
		return NewInt(-a.i()), nil
	case KindFloat:
		return NewFloat(-a.f()), nil
	}
	return Null, fmt.Errorf("%w: -%s", ErrType, a.Kind())
}

// Abs returns |a| for numerics, preserving the kind.
func Abs(a Value) (Value, error) {
	switch a.kind {
	case KindInt:
		if a.i() < 0 {
			return NewInt(-a.i()), nil
		}
		return a, nil
	case KindFloat:
		return NewFloat(math.Abs(a.f())), nil
	}
	return Null, fmt.Errorf("%w: abs(%s)", ErrType, a.Kind())
}

// MinOf returns the smaller of two values under Compare.
func MinOf(a, b Value) Value {
	if Compare(a, b) <= 0 {
		return a
	}
	return b
}

// MaxOf returns the larger of two values under Compare.
func MaxOf(a, b Value) Value {
	if Compare(a, b) >= 0 {
		return a
	}
	return b
}

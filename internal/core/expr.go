package core

import (
	"fmt"
	"math"
	"strings"
	"time"

	"gsqlgo/internal/graph"
	"gsqlgo/internal/gsql"
	"gsqlgo/internal/value"
)

// This file holds the builtins the expression compiler (compile.go)
// calls: membership, aggregate-call recognition and the scalar builtin
// functions.

// evalIn implements membership: element IN list/set/tuple, or key IN
// map.
func evalIn(l, r value.Value) (value.Value, error) {
	switch r.Kind() {
	case value.KindList, value.KindSet, value.KindTuple:
		for _, e := range r.Elems() {
			if value.Equal(l, e) {
				return value.NewBool(true), nil
			}
		}
		return value.NewBool(false), nil
	case value.KindMap:
		for _, p := range r.Pairs() {
			if value.Equal(l, p.Key) {
				return value.NewBool(true), nil
			}
		}
		return value.NewBool(false), nil
	default:
		return value.Null, fmt.Errorf("IN requires a collection right-hand side, got %s", r.Kind())
	}
}

// aggregateNames are the SQL-style aggregate functions recognized in
// grouped SELECT blocks.
var aggregateNames = map[string]bool{
	"count": true, "sum": true, "avg": true, "min": true, "max": true,
}

func isAggregateCall(c *gsql.Call) bool {
	return c.Recv == nil && aggregateNames[lower(c.Name)] && len(c.Args) == 1
}

func lower(s string) string {
	b := []byte(s)
	for i, c := range b {
		if c >= 'A' && c <= 'Z' {
			b[i] = c + 32
		}
	}
	return string(b)
}

// evalBuiltin dispatches scalar builtin functions.
func evalBuiltin(name string, args []value.Value) (value.Value, error) {
	arity := func(n int) error {
		if len(args) != n {
			return fmt.Errorf("%s takes %d argument(s), got %d", name, n, len(args))
		}
		return nil
	}
	float1 := func() (float64, error) {
		if err := arity(1); err != nil {
			return 0, err
		}
		f, ok := args[0].AsFloat()
		if !ok {
			return 0, fmt.Errorf("%s requires a numeric argument, got %s", name, args[0].Kind())
		}
		return f, nil
	}
	str1 := func(name string, args []value.Value) (string, error) {
		if len(args) != 1 || args[0].Kind() != value.KindString {
			return "", fmt.Errorf("%s takes one string argument", name)
		}
		return args[0].Str(), nil
	}
	str2 := func(name string, args []value.Value) (string, string, error) {
		if len(args) != 2 || args[0].Kind() != value.KindString || args[1].Kind() != value.KindString {
			return "", "", fmt.Errorf("%s takes two string arguments", name)
		}
		return args[0].Str(), args[1].Str(), nil
	}
	dt1 := func() (time.Time, error) {
		if err := arity(1); err != nil {
			return time.Time{}, err
		}
		if args[0].Kind() != value.KindDatetime {
			return time.Time{}, fmt.Errorf("%s requires a datetime argument, got %s", name, args[0].Kind())
		}
		return time.Unix(args[0].Datetime(), 0).UTC(), nil
	}
	switch lower(name) {
	case "log":
		f, err := float1()
		if err != nil {
			return value.Null, err
		}
		return value.NewFloat(math.Log(f)), nil
	case "log2":
		f, err := float1()
		if err != nil {
			return value.Null, err
		}
		return value.NewFloat(math.Log2(f)), nil
	case "log10":
		f, err := float1()
		if err != nil {
			return value.Null, err
		}
		return value.NewFloat(math.Log10(f)), nil
	case "exp":
		f, err := float1()
		if err != nil {
			return value.Null, err
		}
		return value.NewFloat(math.Exp(f)), nil
	case "sqrt":
		f, err := float1()
		if err != nil {
			return value.Null, err
		}
		return value.NewFloat(math.Sqrt(f)), nil
	case "abs":
		if err := arity(1); err != nil {
			return value.Null, err
		}
		return value.Abs(args[0])
	case "ceil":
		f, err := float1()
		if err != nil {
			return value.Null, err
		}
		return value.NewFloat(math.Ceil(f)), nil
	case "floor":
		f, err := float1()
		if err != nil {
			return value.Null, err
		}
		return value.NewFloat(math.Floor(f)), nil
	case "pow":
		if err := arity(2); err != nil {
			return value.Null, err
		}
		x, ok1 := args[0].AsFloat()
		y, ok2 := args[1].AsFloat()
		if !ok1 || !ok2 {
			return value.Null, fmt.Errorf("pow requires numeric arguments")
		}
		return value.NewFloat(math.Pow(x, y)), nil
	case "float", "to_float":
		f, err := float1()
		if err != nil {
			return value.Null, err
		}
		return value.NewFloat(f), nil
	case "int", "to_int":
		if err := arity(1); err != nil {
			return value.Null, err
		}
		i, ok := args[0].AsInt()
		if !ok {
			return value.Null, fmt.Errorf("to_int requires a numeric argument")
		}
		return value.NewInt(i), nil
	case "to_string", "str":
		if err := arity(1); err != nil {
			return value.Null, err
		}
		return value.NewString(args[0].String()), nil
	case "length", "str_length":
		if err := arity(1); err != nil {
			return value.Null, err
		}
		if args[0].Kind() != value.KindString {
			return value.Null, fmt.Errorf("length requires a string, got %s", args[0].Kind())
		}
		return value.NewInt(int64(len(args[0].Str()))), nil
	case "size":
		if err := arity(1); err != nil {
			return value.Null, err
		}
		switch args[0].Kind() {
		case value.KindList, value.KindSet, value.KindTuple:
			return value.NewInt(int64(len(args[0].Elems()))), nil
		case value.KindMap:
			return value.NewInt(int64(len(args[0].Pairs()))), nil
		case value.KindString:
			return value.NewInt(int64(len(args[0].Str()))), nil
		}
		return value.Null, fmt.Errorf("size requires a collection or string")
	case "to_datetime":
		if err := arity(1); err != nil {
			return value.Null, err
		}
		if args[0].Kind() != value.KindString {
			return value.Null, fmt.Errorf("to_datetime requires a string")
		}
		return graph.ParseDatetime(args[0].Str())
	case "epoch_to_datetime":
		if err := arity(1); err != nil {
			return value.Null, err
		}
		i, ok := args[0].AsInt()
		if !ok {
			return value.Null, fmt.Errorf("epoch_to_datetime requires an int")
		}
		return value.NewDatetime(i), nil
	case "datetime_to_epoch":
		t, err := dt1()
		if err != nil {
			return value.Null, err
		}
		return value.NewInt(t.Unix()), nil
	case "year":
		t, err := dt1()
		if err != nil {
			return value.Null, err
		}
		return value.NewInt(int64(t.Year())), nil
	case "month":
		t, err := dt1()
		if err != nil {
			return value.Null, err
		}
		return value.NewInt(int64(t.Month())), nil
	case "day":
		t, err := dt1()
		if err != nil {
			return value.Null, err
		}
		return value.NewInt(int64(t.Day())), nil
	case "hour":
		t, err := dt1()
		if err != nil {
			return value.Null, err
		}
		return value.NewInt(int64(t.Hour())), nil
	case "coalesce":
		for _, a := range args {
			if !a.IsNull() {
				return a, nil
			}
		}
		return value.Null, nil
	case "round":
		f, err := float1()
		if err != nil {
			return value.Null, err
		}
		return value.NewFloat(math.Round(f)), nil
	case "sign":
		f, err := float1()
		if err != nil {
			return value.Null, err
		}
		switch {
		case f > 0:
			return value.NewInt(1), nil
		case f < 0:
			return value.NewInt(-1), nil
		}
		return value.NewInt(0), nil
	case "upper":
		s, err := str1(name, args)
		if err != nil {
			return value.Null, err
		}
		return value.NewString(strings.ToUpper(s)), nil
	case "lower":
		s, err := str1(name, args)
		if err != nil {
			return value.Null, err
		}
		return value.NewString(strings.ToLower(s)), nil
	case "trim":
		s, err := str1(name, args)
		if err != nil {
			return value.Null, err
		}
		return value.NewString(strings.TrimSpace(s)), nil
	case "contains":
		s, sub, err := str2(name, args)
		if err != nil {
			return value.Null, err
		}
		return value.NewBool(strings.Contains(s, sub)), nil
	case "starts_with":
		s, sub, err := str2(name, args)
		if err != nil {
			return value.Null, err
		}
		return value.NewBool(strings.HasPrefix(s, sub)), nil
	case "ends_with":
		s, sub, err := str2(name, args)
		if err != nil {
			return value.Null, err
		}
		return value.NewBool(strings.HasSuffix(s, sub)), nil
	case "substr":
		if err := arity(3); err != nil {
			return value.Null, err
		}
		if args[0].Kind() != value.KindString {
			return value.Null, fmt.Errorf("substr requires a string, got %s", args[0].Kind())
		}
		start, ok1 := args[1].AsInt()
		length, ok2 := args[2].AsInt()
		if !ok1 || !ok2 || start < 0 || length < 0 {
			return value.Null, fmt.Errorf("substr requires non-negative int offsets")
		}
		s := args[0].Str()
		if start > int64(len(s)) {
			start = int64(len(s))
		}
		end := start + length
		if end > int64(len(s)) {
			end = int64(len(s))
		}
		return value.NewString(s[start:end]), nil
	case "day_of_week":
		t, err := dt1()
		if err != nil {
			return value.Null, err
		}
		return value.NewInt(int64(t.Weekday())), nil
	case "min":
		if len(args) < 2 {
			return value.Null, fmt.Errorf("scalar min takes at least 2 arguments")
		}
		out := args[0]
		for _, a := range args[1:] {
			out = value.MinOf(out, a)
		}
		return out, nil
	case "max":
		if len(args) < 2 {
			return value.Null, fmt.Errorf("scalar max takes at least 2 arguments")
		}
		out := args[0]
		for _, a := range args[1:] {
			out = value.MaxOf(out, a)
		}
		return out, nil
	default:
		return value.Null, fmt.Errorf("unknown function %q", name)
	}
}

package enginetest

import (
	"fmt"
	"reflect"
	"strconv"

	"earth/internal/earth"
)

// Pins lists, by path, what v keeps reachable beyond plain data: every
// non-nil func, interface, channel, map and unsafe.Pointer reachable from v
// through pointers, structs, arrays and slices, and every non-zero slot
// past a slice's length whose type holds any of those or a pointer — a
// slot the next append overwrites, but which keeps what it points at alive
// until then. Slices are walked to their capacity, each pointer is followed
// once, and slices of plain data are not walked at all. Both engines'
// tests call it on the stores their free list holds, which must keep
// nothing of the runs that used them.
func Pins(v any) []string {
	w := walker{seen: map[visit]bool{}}
	w.walk(reflect.ValueOf(v), "")
	return w.found
}

// RingAtRest reports whether q is empty and every slot of its buffer zero.
func RingAtRest[T any](q *earth.Ring[T]) bool {
	buf := reflect.ValueOf(q).Elem().FieldByName("buf")
	for i := range buf.Len() {
		if !buf.Index(i).IsZero() {
			return false
		}
	}
	return q.Len() == 0
}

// LettersAtRest checks the outbox records on ls, as an application's
// tests do once its runs have given them back: every record's argument at
// rest (atRest says what is wrong with one, nil for nothing), no handler
// kept, and a body that runs a handler posted on the record with that
// record. The last check takes every record through an outbox, posts each
// once and gives them all back with rest. It returns the number of records
// and the first fault.
func LettersAtRest[A any](ls *earth.Letters[A], atRest func(*A) error, rest func(*A)) (int, error) {
	listed := map[*earth.Letter[A]]bool{}
	for b, block := range ls.Listed() {
		v := reflect.ValueOf(block).Elem()
		for i := range v.Len() {
			l := v.Index(i).Addr().Interface().(*earth.Letter[A])
			listed[l] = true
			if err := atRest(&l.Arg); err != nil {
				return 0, fmt.Errorf("block %d record %d: %v", b, i, err)
			}
			if !v.Index(i).FieldByName("h").IsNil() {
				return 0, fmt.Errorf("block %d record %d: handler kept", b, i)
			}
		}
	}
	o := earth.NewOutbox(ls)
	defer o.Reset(rest)
	for i := range len(listed) {
		l := o.Next()
		if !listed[l] {
			return 0, fmt.Errorf("record %d taken is not a listed one", i)
		}
		var got *earth.Letter[A]
		c := &postCtx{}
		l.Post(c, 0, 0, func(_ earth.Ctx, r *earth.Letter[A]) { got = r })
		if c.body(c); got != l {
			return 0, fmt.Errorf("record %d: its body serves another record", i)
		}
	}
	return len(listed), nil
}

// postCtx is a Ctx whose Post keeps the body it is given; nothing else of
// it may be used.
type postCtx struct {
	earth.Ctx
	body earth.ThreadBody
}

func (c *postCtx) Post(_ earth.NodeID, _ int, body earth.ThreadBody) { c.body = body }

type visit struct {
	p uintptr
	t reflect.Type
}

type walker struct {
	seen  map[visit]bool
	found []string
}

func (w *walker) walk(v reflect.Value, path string) {
	switch v.Kind() {
	case reflect.Func, reflect.Interface, reflect.Chan, reflect.Map, reflect.UnsafePointer:
		if !v.IsNil() {
			w.found = append(w.found, path)
		}
	case reflect.Pointer:
		k := visit{v.Pointer(), v.Type()}
		if v.IsNil() || w.seen[k] {
			return
		}
		w.seen[k] = true
		w.walk(v.Elem(), path)
	case reflect.Struct:
		for i := range v.NumField() {
			w.walk(v.Field(i), path+"."+v.Type().Field(i).Name)
		}
	case reflect.Array:
		if refs(v.Type().Elem()) {
			for i := range v.Len() {
				w.walk(v.Index(i), path+"["+strconv.Itoa(i)+"]")
			}
		}
	case reflect.Slice:
		if v.IsNil() || !refs(v.Type().Elem()) {
			return
		}
		all := v.Slice(0, v.Cap())
		for i := range v.Cap() {
			p := path + "[" + strconv.Itoa(i) + "]"
			if e := all.Index(i); i < v.Len() {
				w.walk(e, p)
			} else if !e.IsZero() {
				w.found = append(w.found, p+" past length")
			}
		}
	}
}

// refs reports whether a value of type t can hold a reference.
func refs(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Func, reflect.Interface, reflect.Chan, reflect.Map, reflect.UnsafePointer,
		reflect.Pointer, reflect.Slice:
		return true
	case reflect.Struct:
		for i := range t.NumField() {
			if refs(t.Field(i).Type) {
				return true
			}
		}
	case reflect.Array:
		return t.Len() > 0 && refs(t.Elem())
	}
	return false
}

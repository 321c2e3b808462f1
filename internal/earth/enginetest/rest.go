package enginetest

import (
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

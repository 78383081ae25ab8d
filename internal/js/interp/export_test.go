package interp

// ShapeLayout reports whether o still uses the hidden-class layout (it
// has not fallen into dictionary mode).
func (o *Object) ShapeLayout() bool { return o.shape != nil }

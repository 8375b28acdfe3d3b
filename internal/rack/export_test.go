package rack

// BuiltTrays returns the trays whose discs have been built (Tray), in
// (roller, layer, slot) order.
func (lib *Library) BuiltTrays() []TrayID {
	var out []TrayID
	for _, r := range lib.Rollers {
		for l := range r.trays {
			for s := range r.trays[l] {
				if t := &r.trays[l][s]; t.built {
					out = append(out, t.ID)
				}
			}
		}
	}
	return out
}

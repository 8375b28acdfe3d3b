package image

import "encoding/json"

// MarshalJSON/Unmarshal round-trip the catalog for MV state storage.
func (c *Catalog) Marshal() ([]byte, error) { return json.Marshal(c) }

// UnmarshalCatalog decodes a catalog from MV state bytes.
func UnmarshalCatalog(b []byte) (*Catalog, error) {
	c := NewCatalog()
	if err := json.Unmarshal(b, c); err != nil {
		return nil, err
	}
	return c, nil
}

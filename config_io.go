package netrs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// MarshalConfig serializes a Config to indented JSON. Config is its own
// schema: durations are integer nanoseconds under …Ns keys, and the
// scheme and placement method are written by name.
func MarshalConfig(cfg Config) ([]byte, error) {
	data, err := json.MarshalIndent(cfg, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("netrs: encode config: %w", err)
	}
	return data, nil
}

// UnmarshalConfig parses a Config from JSON produced by MarshalConfig.
// Keys the data omits keep their DefaultConfig values. Unknown keys are an
// error, so a misspelled or retired field cannot be silently ignored.
func UnmarshalConfig(data []byte) (Config, error) {
	cfg := DefaultConfig()
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		return Config{}, fmt.Errorf("netrs: parse config: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return Config{}, fmt.Errorf("netrs: parse config: data after the config object")
	}
	if err := cfg.Scenario.Validate(); err != nil {
		return Config{}, err
	}
	return cfg, nil
}

// SaveConfig writes a Config to a JSON file.
func SaveConfig(path string, cfg Config) error {
	data, err := MarshalConfig(cfg)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("netrs: write config: %w", err)
	}
	return nil
}

// LoadConfig reads a Config from a JSON file.
func LoadConfig(path string) (Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Config{}, fmt.Errorf("netrs: read config: %w", err)
	}
	return UnmarshalConfig(data)
}

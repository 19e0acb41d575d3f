package obs

import "runtime/debug"

// RegisterBuildInfo adds the conventional constant build_info gauge to
// reg, labeled with the Go version and the VCS revision and modified flag
// stamped by the Go build system (empty outside a VCS checkout, e.g. plain
// `go test` in a module cache).
func RegisterBuildInfo(reg *Registry) {
	var goVersion, revision, modified string
	if info, ok := debug.ReadBuildInfo(); ok {
		goVersion = info.GoVersion
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				revision = s.Value
			case "vcs.modified":
				modified = s.Value
			}
		}
	}
	reg.Gauge("build_info",
		"Constant 1; labels identify the binary's build.",
		Label{Name: "go_version", Value: goVersion},
		Label{Name: "revision", Value: revision},
		Label{Name: "modified", Value: modified},
	).Set(1)
}

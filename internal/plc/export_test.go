package plc

import (
	"fmt"
	"strconv"
	"strings"

	"ros/internal/sim"
)

// Encode renders the command in the line protocol the SC sends over TCP.
func (c Command) Encode() string {
	parts := []string{string(c.Op)}
	for _, a := range c.Args {
		parts = append(parts, strconv.Itoa(a))
	}
	return strings.Join(parts, " ")
}

// Decode parses a line-protocol command.
func Decode(line string) (Command, error) {
	fields := strings.Fields(strings.TrimSpace(line))
	if len(fields) == 0 {
		return Command{}, fmt.Errorf("%w: empty line", ErrBadCommand)
	}
	cmd := Command{Op: Op(fields[0])}
	switch cmd.Op {
	case OpRotate, OpArm, OpSeparate, OpCollect:
		if len(fields) != 2 {
			return Command{}, fmt.Errorf("%w: %s needs 1 arg", ErrBadCommand, cmd.Op)
		}
	case OpArmTop, OpFanOut, OpFanIn, OpFetch, OpPlace, OpStatus:
		if len(fields) != 1 {
			return Command{}, fmt.Errorf("%w: %s takes no args", ErrBadCommand, cmd.Op)
		}
	default:
		return Command{}, fmt.Errorf("%w: unknown op %q", ErrBadCommand, fields[0])
	}
	for _, f := range fields[1:] {
		n, err := strconv.Atoi(f)
		if err != nil {
			return Command{}, fmt.Errorf("%w: bad arg %q", ErrBadCommand, f)
		}
		cmd.Args = append(cmd.Args, n)
	}
	return cmd, nil
}

// InjectFault makes the next motion instruction fail, exercising the
// feedback-control error path.
func (c *Controller) InjectFault() { c.faulty = true }

// ExecLine decodes and executes a line-protocol instruction — the form
// arriving over the SC<->PLC TCP link.
func (c *Controller) ExecLine(p *sim.Proc, line string) (Sensors, error) {
	cmd, err := Decode(line)
	if err != nil {
		return c.Sensors(), err
	}
	return c.Exec(p, cmd)
}

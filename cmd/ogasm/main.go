// Command ogasm assembles OG64 assembly to an object file, or
// disassembles an object file back to text.
//
// Usage:
//
//	ogasm prog.s                    # assemble, print stats + disassembly
//	ogasm -encode prog.s prog.og64  # assemble and write an object file
//	ogasm -decode prog.og64         # disassemble an object file
package main

import (
	"flag"
	"fmt"
	"os"

	"opgate"
	"opgate/internal/asm"
	"opgate/internal/isa"
	"opgate/internal/objfile"
)

func main() {
	encode := flag.Bool("encode", false, "write the binary encoding to the second argument")
	decode := flag.Bool("decode", false, "decode a binary image")
	flag.Parse()
	if err := run(*encode, *decode, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "ogasm:", err)
		os.Exit(1)
	}
}

func run(encode, decode bool, args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("need an input file")
	}
	if decode {
		p, err := objfile.ReadFile(args[0])
		if err != nil {
			return err
		}
		fmt.Printf("%d instructions, %d functions, %d data bytes\n",
			len(p.Ins), len(p.Funcs), len(p.Data))
		fmt.Print(asm.Disassemble(p))
		return nil
	}

	p, err := opgate.AssembleFile(args[0])
	if err != nil {
		return err
	}
	if encode {
		if len(args) < 2 {
			return fmt.Errorf("-encode needs an output file")
		}
		// Sanity: the image must round-trip through the instruction
		// encoding before it is written.
		if _, err := isa.EncodeProgram(p.Ins); err != nil {
			return err
		}
		return objfile.WriteFile(args[1], p)
	}
	fmt.Printf("%d instructions, %d functions, %d data bytes\n",
		len(p.Ins), len(p.Funcs), len(p.Data))
	fmt.Print(asm.Disassemble(p))
	return nil
}

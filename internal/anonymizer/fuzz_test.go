package anonymizer

import (
	"bytes"
	"testing"
)

// The fuzz targets below guard the two decoders that face bytes an
// attacker (or a dying disk) controls: WAL/snapshot record framing and
// the backup-archive reader. The contract is identical for both — never
// panic, never allocate past the frame limit, never report more intact
// bytes than the input holds — and CI runs a short -fuzztime smoke over
// each on every push (make fuzz-smoke).

// fuzzSeedFrames returns a few well-formed byte streams so the fuzzer
// starts from valid framing rather than pure noise.
func fuzzSeedFrames(tb testing.TB) [][]byte {
	tb.Helper()
	var seeds [][]byte

	frame := func(rec *walRecord) []byte {
		b, err := appendRecord(nil, rec)
		if err != nil {
			tb.Fatal(err)
		}
		return b
	}
	reg := frame(registerRecord("r1", fakeRegistration(tb, 2)))
	trust := frame(&walRecord{Type: recTrust, ID: "r1", Requester: "alice", ToLevel: 1})
	dereg := frame(&walRecord{Type: recDeregister, ID: "r1"})
	header := frame(&walRecord{Type: recSnapHeader, NextID: 7})
	// Schema-v3 shapes: a derived-key register record (key reference, no
	// key material), one referencing an epoch no keyring holds, and the
	// forbidden hybrid carrying both forms.
	derivedReg := frame(registerRecord("r2", fakeDerivedRegistration(tb, 2)))
	unknownEpoch := frame(&walRecord{
		Type: recRegister, ID: "r3",
		Region: fakeRegistration(tb, 1).region, KeyEpoch: 999, KeyLevels: 1, Default: 1,
	})
	hybridRec := registerRecord("r4", fakeRegistration(tb, 2))
	hybridRec.KeyEpoch, hybridRec.KeyLevels = 1, 2
	hybrid := frame(hybridRec)
	// Sealed levels: a register record carrying them, and one whose
	// sealed bytes are a byte short of what its region's steps give.
	sealedReg := fakeSealedRegistration(tb, 2)
	sealed := frame(registerRecord("r5", sealedReg))
	shortRec := registerRecord("r6", sealedReg)
	shortRec.Sealed = shortRec.Sealed[:len(shortRec.Sealed)-1]
	sealedShort := frame(shortRec)

	seeds = append(seeds,
		nil,
		reg,
		append(append(append([]byte{}, header...), reg...), trust...),
		append(append([]byte{}, reg...), dereg...),
		reg[:len(reg)-3],                       // torn tail
		append(append([]byte{}, reg...), 0xde), // garbage tail
		derivedReg,
		unknownEpoch,
		hybrid,
		append(append([]byte{}, derivedReg...), dereg...),
		derivedReg[:len(derivedReg)-2], // torn derived tail
		sealed,
		sealedShort,
		append(append([]byte{}, sealed...), dereg...),
	)
	return seeds
}

// FuzzDecodeWALRecord feeds arbitrary bytes through the WAL scanner and
// the record→mutation decoder: no input may panic, over-read, or yield an
// intact-prefix offset beyond the input length. The decoder runs both
// keyring-less and with a keyring, covering the v2 (stored keys) and v3
// (key reference) vocabularies; a record carrying a key reference must
// never decode into a stored-key registration and vice versa.
func FuzzDecodeWALRecord(f *testing.F) {
	for _, seed := range fuzzSeedFrames(f) {
		f.Add(seed)
	}
	kr := fuzzKeyring(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		off, err := readRecords(r, func(rec *walRecord) error {
			// Exercise the semantic decoders too: errors are expected on
			// corrupt payloads, panics never.
			m, err := mutationFromRecord(rec, kr)
			if err == nil && m.Op == MutRegister {
				refRec := rec.KeyEpoch != 0 || rec.KeyLevels != 0
				if refRec != m.Reg.derived() {
					t.Fatalf("record (epoch=%d levels=%d keys=%d) decoded as derived=%v",
						rec.KeyEpoch, rec.KeyLevels, len(rec.Keys), m.Reg.derived())
				}
				// Sealed bytes decode only at their region's length, and
				// opening them with the record's own keys never panics.
				if m.Reg.Sealed() && !sealedFits(m.Reg.region.Levels, m.Reg.sealed) {
					t.Fatalf("%d sealed bytes decoded for levels %+v", len(m.Reg.sealed), m.Reg.region.Levels)
				}
				if grant, err := m.Reg.grant(0); err == nil && m.Reg.Sealed() {
					m.Reg.openReduce(m.Reg.region, grant, 0)
				}
			}
			// A derived record must fail cleanly, not decode as stored keys,
			// when no keyring is at hand.
			if m2, err2 := mutationFromRecord(rec, nil); err2 == nil && m2.Op == MutRegister && m2.Reg.derived() {
				t.Fatal("derived record decoded without a keyring")
			}
			return nil
		})
		if off < 0 || off > int64(len(data)) {
			t.Fatalf("intact offset %d outside input of %d bytes", off, len(data))
		}
		if err == nil && off != int64(len(data))-int64(r.Len()) {
			t.Fatalf("clean scan consumed %d bytes but reported %d intact",
				int64(len(data))-int64(r.Len()), off)
		}
	})
}

// discardSink accepts any structurally valid archive without touching
// the filesystem.
type discardSink struct{}

func (discardSink) Header(int, uint64, *uint64) error { return nil }
func (discardSink) File(string, uint64) error         { return nil }
func (discardSink) Data([]byte) error                 { return nil }
func (discardSink) CloseFile() error                  { return nil }
func (discardSink) End(int) error                     { return nil }

// FuzzReadArchive feeds arbitrary bytes through the archive reader: no
// input may panic or over-read, and only a structurally complete archive
// may pass validation.
func FuzzReadArchive(f *testing.F) {
	// Seed with a real full archive (and mutations of it) and a delta so
	// the fuzzer reaches the deep states quickly.
	dir := f.TempDir()
	st, err := OpenDurableStore(dir)
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := st.Register(fakeRegistration(f, 2)); err != nil {
			f.Fatal(err)
		}
	}
	var archive bytes.Buffer
	if _, err := st.WriteBackup(&archive); err != nil {
		f.Fatal(err)
	}
	since := st.Watermark()
	if _, err := st.Register(fakeRegistration(f, 1)); err != nil {
		f.Fatal(err)
	}
	var delta bytes.Buffer
	if _, _, err := st.WriteIncrementalBackup(&delta, since); err != nil {
		f.Fatal(err)
	}
	if err := st.Close(); err != nil {
		f.Fatal(err)
	}
	f.Add(delta.Bytes())
	full := archive.Bytes()
	f.Add([]byte(nil))
	f.Add(full)
	f.Add(full[:len(full)/2])
	f.Add(full[:len(full)-1])
	flipped := append([]byte(nil), full...)
	flipped[len(flipped)/3] ^= 0x20
	f.Add(flipped)
	f.Add(stripeCountArchive(f, 1<<40))

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		_ = readArchive(r, discardSink{})
	})
}

(* Quickstart: mount HiNFS on a simulated NVMM device, do ordinary file
   I/O through the VFS handle, and look at what the buffer did.

     dune exec examples/quickstart.exe *)

module Engine = Hinfs_sim.Engine
module Stats = Hinfs_stats.Stats
module Config = Hinfs_nvmm.Config
module Device = Hinfs_nvmm.Device
module Types = Hinfs_vfs.Types
module Vfs = Hinfs_vfs.Vfs

let () =
  (* Everything runs inside a discrete-event simulation: the engine owns a
     virtual nanosecond clock, and file-system operations consume virtual
     time according to the NVMM cost model. *)
  let engine = Engine.create () in
  Engine.spawn engine ~name:"quickstart" (fun () ->
      (* 1. A 64 MB NVMM device with the paper's default timing (200 ns
         writes, 1 GB/s write bandwidth). *)
      let stats = Stats.create () in
      let config =
        Config.validate
          { Config.default with Config.nvmm_size = 64 * 1024 * 1024 }
      in
      let device = Device.create engine stats config in

      (* 2. mkfs + mount HiNFS with an 8 MB DRAM write buffer and the
         background writeback daemons running. *)
      let hcfg =
        { Hinfs.Hconfig.default with Hinfs.Hconfig.buffer_bytes = 8 * 1024 * 1024 }
      in
      let fs = Hinfs.Fs.mkfs_and_mount device ~hcfg ~daemons:true () in
      let h = Hinfs.Fs.handle fs in

      (* 3. Ordinary file I/O through the POSIX-flavoured handle. *)
      h.Vfs.mkdir "/projects";
      let fd = h.Vfs.open_ "/projects/notes.txt"
          { Types.creat with Types.read = true } in
      let text = Bytes.of_string "NVMM writes are slow; buffer them in DRAM.\n" in
      let t0 = Engine.now engine in
      for _ = 1 to 1000 do
        ignore (h.Vfs.write fd text (Bytes.length text))
      done;
      let write_time = Engine.now engine - t0 in

      (* The writes are sitting in the DRAM buffer: read them back. *)
      h.Vfs.seek fd 0;
      let buf = Bytes.create (Bytes.length text) in
      ignore (h.Vfs.read fd buf (Bytes.length buf));
      Fmt.pr "first line read back: %s" (Bytes.to_string buf);
      Fmt.pr "1000 lazy writes took %.1f us of virtual time@."
        (float_of_int write_time /. 1e3);
      Fmt.pr "buffered blocks: %d (dirty: %d), NVMM bytes written so far: %Ld@."
        (Hinfs.Fs.buffered_blocks fs)
        (Hinfs.Fs.dirty_buffered_blocks fs)
        (Stats.nvmm_bytes_written stats);

      (* 4. fsync makes it durable: the dirty cachelines stream to NVMM and
         the ordered-mode metadata transaction commits. *)
      let t0 = Engine.now engine in
      h.Vfs.fsync fd;
      Fmt.pr "fsync took %.1f us; NVMM bytes now: %Ld@."
        (float_of_int (Engine.now engine - t0) /. 1e3)
        (Stats.nvmm_bytes_written stats);
      h.Vfs.close fd;

      (* 5. Unmount flushes everything and stops the daemons. *)
      h.Vfs.unmount ();
      Fmt.pr "@.time breakdown:@.%a@." Stats.pp_breakdown stats);
  Engine.run engine;
  Fmt.pr "@.simulation finished at t = %.3f ms (virtual)@."
    (float_of_int (Engine.now engine) /. 1e6)

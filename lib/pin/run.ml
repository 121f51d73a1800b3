open Elfie_machine
open Elfie_kernel

type spec = {
  image : Elfie_elf.Image.t;
  argv : string list;
  env : string list;
  fs_init : Fs.t -> unit;
  cwd : string;
  seed : int64;
  native : bool;
}

let spec ?(argv = [ "a.out" ]) ?(env = [ "PATH=/bin" ]) ?(fs_init = fun _ -> ())
    ?(cwd = "/") ?(seed = 42L) ?(native = true) image =
  { image; argv; env; fs_init; cwd; seed; native }

let instantiate ?scheduler s =
  let scheduler =
    match scheduler with
    | Some sched -> sched
    | None -> Machine.Free { seed = s.seed; quantum_min = 50; quantum_max = 200 }
  in
  let machine = Machine.create ~native:s.native scheduler in
  let fs = Fs.create () in
  s.fs_init fs;
  let kcfg =
    {
      Vkernel.default_config with
      kernel_cost = s.native;
      seed = s.seed;
      initial_cwd = s.cwd;
    }
  in
  let kernel = Vkernel.create ~config:kcfg fs in
  Vkernel.install kernel machine;
  (* Real hardware takes timer interrupts; they are also the source of
     run-to-run variation across seeds. Simulators model their own
     timing instead. *)
  if s.native then
    Machine.set_timer machine ~interval:8192 ~cycles:250 ~seed:s.seed;
  let _tid, _layout = Loader.load kernel machine s.image ~argv:s.argv ~env:s.env in
  (machine, kernel)

type stats = {
  retired : int64;
  cycles : int64;
  cpi : float;
  stdout : string;
  clean : bool;
  per_thread_retired : int64 array;
  ring0_retired : int64;
}

let stats_of_machine machine kernel =
  let retired = Machine.total_retired machine in
  let cycles = Machine.elapsed_cycles machine in
  {
    retired;
    cycles;
    cpi =
      (if retired = 0L then 0.0 else Int64.to_float cycles /. Int64.to_float retired);
    stdout = Vkernel.stdout_contents kernel;
    clean = Machine.all_exited_cleanly machine;
    per_thread_retired =
      Array.of_list
        (List.map (fun th -> Int64.of_int th.Machine.retired) (Machine.threads machine));
    ring0_retired = Machine.ring0_retired machine;
  }

let native ?max_ins s =
  let machine, kernel = instantiate s in
  Machine.run ?max_ins machine;
  stats_of_machine machine kernel

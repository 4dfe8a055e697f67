(** The cudadev device runtime library (paper 4.2.2), exposed to kernel
    code as interpreter builtins.

    One {!install} call per launch fills the launch's shared builtin
    table, each entry point registered against its C signature
    ({!Minic.Typecheck.builtin_signature}).  No builtin closes over
    block or thread state: each finds the running block through the
    launch's current-block accessor and its
    thread as [bs_threads.(ctx.lane)], whose OpenMP ids
    ({!Gpusim.Simt.thread_state.ts_omp_id}/[ts_omp_num]) the
    master/worker engine overrides for the duration of a parallel
    region.  Installed entry points include:

    - identity: [cudadev_thread_id], [cudadev_team_id],
      [omp_get_thread_num], [omp_get_num_threads], ...;
    - the master/worker scheme: [cudadev_in_masterwarp],
      [cudadev_is_masterthr], [cudadev_register_parallel],
      [cudadev_workerfunc], [cudadev_exit_target] (B1/B2 protocol);
    - the shared-memory stack: [cudadev_push_shmem],
      [cudadev_pop_shmem], [cudadev_getaddr];
    - worksharing: [cudadev_get_distribute_chunk],
      [cudadev_get_static_chunk], [cudadev_get_dynamic_chunk],
      [cudadev_get_guided_chunk], [cudadev_ws_barrier],
      [cudadev_barrier], [cudadev_sections_next];
    - synchronisation: [cudadev_lock]/[cudadev_unlock] (CAS spin locks),
      atomic reductions ([cudadev_reduce_*]);
    - CUDA intrinsics for hand-written kernels: [__syncthreads],
      [atomicAdd], [atomicCAS], [atomicExch]. *)

exception Devrt_error of string

val b1_participants : Gpusim.Simt.block_state -> int

val barrier_id_b1 : int

val barrier_id_b2 : int

val barrier_id_user : int

val install : Gpusim.Simt.installer

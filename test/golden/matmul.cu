// Generated by hidet-ocaml (task-mapping programming paradigm)
// mma_sync_MxNxK: warp-cooperative tensor-core tile multiply-accumulate.
// grid=4 block=128 stages=2
__global__ void __launch_bounds__(128) matmul_1x123x77x45_b64x64x8_w32x32_db(float* __restrict__ A_1, float* __restrict__ B_2, float* __restrict__ C_3) {
  __shared__ float SmemA_4[2][64][8];
  __shared__ float SmemB_5[2][8][64];
  float RegsC_6[8][4];
  float RegsAF_7[8];
  float RegsBF_8[4];
  float RegsA_9[4][1];
  float RegsB_10[4][1];
  const int jn_11 = (blockIdx.x % 2);
  const int im_12 = ((blockIdx.x / 2) % 2);
  const int b_13 = (blockIdx.x / 4);
  const int row0_14 = (im_12 * 64);
  const int col0_15 = (jn_11 * 64);
  const int w_16 = (threadIdx.x / 32);
  const int lane_17 = (threadIdx.x % 32);
  const int wm_18 = ((w_16 / 2) * 32);
  const int wn_19 = ((w_16 % 2) * 32);
  #pragma unroll
  for (int r_20 = 0; r_20 < 8; ++r_20) {
    #pragma unroll
    for (int r_21 = 0; r_21 < 4; ++r_21) {
      RegsC_6[r_20][r_21] = 0.0f;
    }
  }
  // preload k-tile 0 into stage 0
  #pragma unroll
  for (int r_22 = 0; r_22 < 4; ++r_22) {
    SmemA_4[0][((r_22 * 16) + (((threadIdx.x % 128) / 8) % 16))][((threadIdx.x % 128) % 8)] = ((((row0_14 + ((r_22 * 16) + (((threadIdx.x % 128) / 8) % 16))) < 123) && (((threadIdx.x % 128) % 8) < 45)) ? A_1[((((b_13 * 123) + (row0_14 + ((r_22 * 16) + (((threadIdx.x % 128) / 8) % 16)))) * 45) + ((threadIdx.x % 128) % 8))] : 0.0f);
  }
  #pragma unroll
  for (int r_23 = 0; r_23 < 4; ++r_23) {
    SmemB_5[0][((r_23 * 2) + (((threadIdx.x % 128) / 64) % 2))][((threadIdx.x % 128) % 64)] = (((((r_23 * 2) + (((threadIdx.x % 128) / 64) % 2)) < 45) && ((col0_15 + ((threadIdx.x % 128) % 64)) < 77)) ? B_2[((((r_23 * 2) + (((threadIdx.x % 128) / 64) % 2)) * 77) + (col0_15 + ((threadIdx.x % 128) % 64)))] : 0.0f);
  }
  __syncthreads();
  for (int kt_24 = 0; kt_24 < 6; ++kt_24) {
    // prefetch upcoming tile into registers
    if (((kt_24 + 1) < 6)) {
      #pragma unroll
      for (int r_25 = 0; r_25 < 4; ++r_25) {
        RegsA_9[r_25][0] = ((((row0_14 + ((r_25 * 16) + (((threadIdx.x % 128) / 8) % 16))) < 123) && ((((kt_24 + 1) * 8) + ((threadIdx.x % 128) % 8)) < 45)) ? A_1[((((b_13 * 123) + (row0_14 + ((r_25 * 16) + (((threadIdx.x % 128) / 8) % 16)))) * 45) + (((kt_24 + 1) * 8) + ((threadIdx.x % 128) % 8)))] : 0.0f);
      }
      #pragma unroll
      for (int r_26 = 0; r_26 < 4; ++r_26) {
        RegsB_10[r_26][0] = ((((((kt_24 + 1) * 8) + ((r_26 * 2) + (((threadIdx.x % 128) / 64) % 2))) < 45) && ((col0_15 + ((threadIdx.x % 128) % 64)) < 77)) ? B_2[(((((kt_24 + 1) * 8) + ((r_26 * 2) + (((threadIdx.x % 128) / 64) % 2))) * 77) + (col0_15 + ((threadIdx.x % 128) % 64)))] : 0.0f);
      }
    }
    // compute on current stage
    for (int kk_27 = 0; kk_27 < 8; ++kk_27) {
      #pragma unroll
      for (int r_28 = 0; r_28 < 8; ++r_28) {
        RegsAF_7[r_28] = SmemA_4[(kt_24 % 2)][(wm_18 + ((r_28 * 4) + ((lane_17 / 8) % 4)))][kk_27];
      }
      #pragma unroll
      for (int r_29 = 0; r_29 < 4; ++r_29) {
        RegsBF_8[r_29] = SmemB_5[(kt_24 % 2)][kk_27][(wn_19 + ((r_29 * 8) + (lane_17 % 8)))];
      }
      #pragma unroll
      for (int r_30 = 0; r_30 < 8; ++r_30) {
        #pragma unroll
        for (int r_31 = 0; r_31 < 4; ++r_31) {
          RegsC_6[r_30][r_31] = (RegsC_6[r_30][r_31] + (RegsAF_7[r_30] * RegsBF_8[r_31]));
        }
      }
    }
    // stage prefetched tile into shared memory
    if (((kt_24 + 1) < 6)) {
      #pragma unroll
      for (int r_32 = 0; r_32 < 4; ++r_32) {
        SmemA_4[((kt_24 + 1) % 2)][((r_32 * 16) + (((threadIdx.x % 128) / 8) % 16))][((threadIdx.x % 128) % 8)] = RegsA_9[r_32][0];
      }
      #pragma unroll
      for (int r_33 = 0; r_33 < 4; ++r_33) {
        SmemB_5[((kt_24 + 1) % 2)][((r_33 * 2) + (((threadIdx.x % 128) / 64) % 2))][((threadIdx.x % 128) % 64)] = RegsB_10[r_33][0];
      }
    }
    __syncthreads();
  }
  #pragma unroll
  for (int r_34 = 0; r_34 < 8; ++r_34) {
    #pragma unroll
    for (int r_35 = 0; r_35 < 4; ++r_35) {
      if (((((row0_14 + wm_18) + ((r_34 * 4) + (((lane_17 % 32) / 8) % 4))) < 123) && (((col0_15 + wn_19) + ((r_35 * 8) + ((lane_17 % 32) % 8))) < 77))) {
        C_3[((((b_13 * 123) + ((row0_14 + wm_18) + ((r_34 * 4) + (((lane_17 % 32) / 8) % 4)))) * 77) + ((col0_15 + wn_19) + ((r_35 * 8) + ((lane_17 % 32) % 8))))] = RegsC_6[r_34][r_35];
      }
    }
  }
}
